GO ?= go

.PHONY: check vet lint fmt-check build test race memo-race writer-race route-equiv fuzz-smoke bench bench-smoke benchmark-check metrics-check chaos-smoke loc serve clean

# check is the tier-1 gate: formatting, vet, the project-invariant lint
# suite, build, and the full test tree under -race.
check: fmt-check vet lint build race

vet:
	$(GO) vet ./...

# lint runs the annoda-lint analyzer suite (lock discipline, frozen-graph
# mutation, sticky errors, codec determinism) over the whole tree. See
# DESIGN.md "Static analysis" for the rules and the suppression syntax.
lint:
	$(GO) run ./cmd/annoda-lint ./...

# fmt-check fails (listing the offenders) when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# memo-race repeats the translation memo's concurrency test: pushdown
# queries from several goroutines across refreshes of the source they
# filter, where memo builds, reads and replacements interleave. One pass is
# part of `make race`; the repeat count is what gives the detector a chance.
memo-race:
	$(GO) test -race -count=10 -run 'TestTranslationMemoRace' ./internal/mediator

# writer-race repeats the one-writer tests (see internal/mediator/writer.go):
# concurrent LocusLink and GO refreshes with persistence on must publish
# feed events in WAL order and restore to the live world, and a subscriber
# that re-asks on a change event must read the changed world. One pass is
# part of `make race`; the repeat count gives the interleavings a chance.
writer-race:
	$(GO) test -race -count=10 -run 'TestWriterOneOrder|TestNotifiedSubscriberReadsInvalidated' ./internal/mediator

# route-equiv runs the route-equivalence property test long and under -race:
# more seeds, denser samples of the generated queries and a 2.5k-gene corpus —
# masked epoch vs the per-query pipeline with and without pushdown, a
# delta-patched epoch vs a rebuilt one, and save→restore, all byte-equal
# under CanonicalText. `make race` runs its small-seed-count form.
route-equiv:
	$(GO) test -race -count=1 -timeout 30m -run 'TestRouteEquivalence' ./internal/mediator -args -route-equiv-long

# fuzz-smoke gives each codec fuzzer a short budget so decode crashes are
# caught in CI without a long fuzzing campaign, and FuzzTextEncode holds the
# Figure 3 text walker and the server's JSON quoting to their frozen
# references. (go test accepts only one -fuzz pattern per package, hence one
# invocation per target.)
fuzz-smoke:
	$(GO) test ./internal/oem -fuzz FuzzDecodeBinary -fuzztime 10s -run xxx
	$(GO) test ./internal/oem -fuzz FuzzTextEncode -fuzztime 10s -run xxx
	$(GO) test ./internal/delta -fuzz FuzzDecodeChangeSet -fuzztime 10s -run xxx

# bench runs every paper-artifact benchmark a few iterations (smoke), not a
# statistically careful run. ./... matters: the internal/ packages carry
# benchmarks too, and a bare "." silently skipped all of them.
bench:
	$(GO) test -run xxx -bench . -benchtime 5x ./...

# bench-smoke compiles and runs every benchmark in the tree exactly once so
# CI catches benchmarks that no longer build or crash — they must not rot
# silently between careful runs (./... includes internal/mediator's
# BenchmarkFetchPushdown/{1k,10k}, BenchmarkTranslateGO, BenchmarkPrunedMiss/
# {1k,10k}, BenchmarkColdFuse and BenchmarkAskBatch, internal/fused's
# BenchmarkEpochProvenance/{1k,10k}, internal/feed's
# BenchmarkNotifyFanout/{100,1000}, and the server's BenchmarkAnswerEncode
# beside BenchmarkAPIQueryHit). The
# second pass re-runs the parallel-fusion and batch benches under
# GOMAXPROCS=8 so the sharded fuse and the lock-free epoch read path see
# real goroutine concurrency even on small CI runners.
# The final lines smoke-run the E19 obs-overhead and E20
# introspection-overhead experiments through the annoda-bench runner itself
# (including the -json recorder), so the CLI experiment path can't rot
# independently of the benchmarks.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -bench='ColdFuse|AskBatch' -benchtime=1x -cpu 8 ./internal/mediator
	$(GO) run ./cmd/annoda-bench -exp E19 -genes 200 -json /dev/null
	$(GO) run ./cmd/annoda-bench -exp E20 -genes 200 -json /dev/null

# benchmark-check vets and tests the load harness. benchmark/ is its own
# module (repro/benchmark), so `./...` from the root never sees it: without
# this target nothing notices a production API change that stops the
# harness compiling.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# loc prints production and test line counts: every tracked .go file outside
# benchmark/ and testdata/, split on the _test.go suffix. "Production lines
# go down" is a success metric of the round (ROADMAP aim 2). linked counts
# the module's lines that the server, the CLI and the public annoda package
# actually compile in.
loc:
	@files=$$(git ls-files '*.go' | grep -v -e '^benchmark/' -e '/testdata/'); \
	echo "production: $$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test:       $$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"; \
	linked=$$($(GO) list -deps -f '{{if and .Module .Module.Main}}{{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}{{end}}' ./cmd/annoda-server ./cmd/annoda ./annoda); \
	echo "linked:     $$(cat $$linked | wc -l)"

# metrics-check boots a real server on a loopback port, scrapes GET
# /metrics after one warm-up query, and validates the scrape as Prometheus
# text exposition 0.0.4 via `annoda-lint -prom` — the hand-rolled
# exposition writer is checked against a live process, not just fixtures.
# It then asserts the introspection series (plan cache, per-source stats)
# are present in the scrape, and smokes POST /api/explain for a valid
# JSON-shaped plan report. Before the scrape it asks the Figure 5(b)
# question three times: the two hits must be byte-equal (the second is
# built, the third served from the memoized rendering), every response's
# Content-Length must be its body size, and the scrape must then carry the
# render stage — and, since that question names two of the four concepts, the
# answer_import stage and the masked-concept counter of an evaluation on the
# epoch, beside the Go runtime gauges.
metrics-check:
	@set -e; \
	$(GO) build -o /tmp/annoda-server-ci ./cmd/annoda-server; \
	$(GO) build -o /tmp/annoda-lint-ci ./cmd/annoda-lint; \
	/tmp/annoda-server-ci -addr 127.0.0.1:18077 -genes 60 >/tmp/annoda-server-ci.log 2>&1 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	up=0; \
	for i in $$(seq 1 100); do \
		if curl -fsS http://127.0.0.1:18077/healthz >/dev/null 2>&1; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	if [ "$$up" != 1 ]; then echo "server never became healthy:"; cat /tmp/annoda-server-ci.log; exit 1; fi; \
	curl -fsS "http://127.0.0.1:18077/api/query?q=select%20G%20from%20ANNODA-GML.Gene%20G" >/dev/null; \
	for i in 1 2 3; do \
		curl -fsS -X POST -d '{"include":["GO"],"exclude":["OMIM"]}' -D /tmp/annoda-ask-$$i.hdr \
			http://127.0.0.1:18077/api/ask -o /tmp/annoda-ask-$$i.json; \
		cl=$$(tr -d '\r' </tmp/annoda-ask-$$i.hdr | awk 'tolower($$1)=="content-length:"{print $$2}'); \
		size=$$(wc -c </tmp/annoda-ask-$$i.json); \
		if [ "$$cl" != "$$size" ]; then echo "/api/ask response $$i: Content-Length '$$cl', body $$size bytes"; exit 1; fi; \
	done; \
	cmp /tmp/annoda-ask-2.json /tmp/annoda-ask-3.json || { echo "/api/ask: built and memoized hit bodies differ"; exit 1; }; \
	curl -fsS http://127.0.0.1:18077/metrics -o /tmp/annoda-scrape.txt; \
	/tmp/annoda-lint-ci -prom /tmp/annoda-scrape.txt; \
	for series in annoda_plan_cache_hits_total annoda_plan_cache_entries annoda_plan_explains_total annoda_source_entities annoda_source_fetch_ewma_micros 'annoda_stage_duration_seconds_count{stage="render"} [1-9]' 'annoda_stage_duration_seconds_count{stage="answer_import"} [1-9]' 'annoda_epoch_masked_total{concept="Protein"} [1-9]' annoda_go_goroutines annoda_go_heap_live_bytes annoda_go_alloc_bytes_total annoda_go_gc_pause_micros_total; do \
		grep -q "^$$series" /tmp/annoda-scrape.txt || { echo "metrics scrape missing $$series"; exit 1; }; \
	done; \
	curl -fsS -X POST -d '{"query":"select G from ANNODA-GML.Gene G","analyze":true}' \
		http://127.0.0.1:18077/api/explain -o /tmp/annoda-explain.json; \
	$(GO) run ./cmd/annoda-lint -explain-shape /tmp/annoda-explain.json

# chaos-smoke runs the fault-tolerance battery on its own, under -race and
# with the remaining -run filter widened to the breaker/fault-injection
# suites: the deterministic chaos soak (injected source faults under
# concurrent query/batch/refresh load), degraded-mode fusion, breaker
# probe-rate capping, and the health/faults unit tests. `make race` already
# includes these; this target is the fast loop for iterating on the
# fault-tolerance layer and the CI step that names it in the UI.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos|Degraded|Breaker|Strict' ./internal/mediator
	$(GO) test -race -count=1 ./internal/health ./internal/faults

serve:
	$(GO) run ./cmd/annoda-server

clean:
	$(GO) clean ./...
