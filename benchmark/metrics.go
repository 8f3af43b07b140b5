package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metrics maps a metric name from BENCHMARK.json to its measured value; a
// nil value is JSON null: not applicable to the workload, or a series the
// server did not expose.
type metrics map[string]*float64

// set records v; NaN and infinities (an empty sample, a zero divisor)
// record null.
func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		m[name] = nil
		return
	}
	m[name] = &v
}

func (m metrics) get(name string) (float64, bool) {
	if p := m[name]; p != nil {
		return *p, true
	}
	return 0, false
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// nan is the "missing" value for the scrape arithmetic below.
var nan = math.NaN()

// val returns a series' delta, NaN when the server does not expose it.
func (s scrape) val(series string) float64 {
	if v, ok := s[series]; ok {
		return v
	}
	return nan
}

// histMean returns a histogram's mean observation in ms over the window.
func (s scrape) histMean(name, labels string) float64 {
	return 1e3 * s.val(name+"_sum"+labels) / s.val(name+"_count"+labels)
}

func stage(name string) string { return `{stage="` + name + `"}` }

// layerMetricsFromScrape turns the difference between two /metrics scrapes
// taken around a timed window into the measure-pass layer metrics. Times
// are the server's own histograms divided by the requests the window
// completed, so the lines add up to a per-request ledger; a series the
// server does not (or no longer) expose yields null. Nothing is asserted:
// which route a query took is the server's business, recorded here.
func layerMetricsFromScrape(d scrape, requests float64, m metrics) {
	perReq := func(series string) float64 { return 1e3 * d.val(series) / requests }
	stageMS := func(name string) float64 { return perReq("annoda_stage_duration_seconds_sum" + stage(name)) }

	var httpSum, httpCount float64
	for _, route := range []string{"/api/ask", "/api/query"} {
		if v, ok := d[`annoda_http_request_duration_seconds_sum{route="`+route+`"}`]; ok {
			httpSum += v
			httpCount += d[`annoda_http_request_duration_seconds_count{route="`+route+`"}`]
		}
	}
	httpMS := 1e3 * httpSum / httpCount
	opMS := d.histMean("annoda_op_duration_seconds", `{op="query"}`)
	m.set("server.http_ms", httpMS)
	m.set("mediator.op_ms", opMS)
	m.set("server.outside_mediator_ms", httpMS-opMS)

	hits, misses, shared := d.val("annoda_cache_hits_total"), d.val("annoda_cache_misses_total"), d.val("annoda_cache_shared_total")
	m.set("qcache.hit_ratio", hits/(hits+misses+shared))
	m.set("qcache.lookup_ms", d.histMean("annoda_stage_duration_seconds", stage("cache_lookup")))
	m.set("qcache.evictions", d.val("annoda_cache_evictions_total"))

	// The server records one fetch (or pushdown) span per source and, on the
	// pipeline route, one more around the whole fan-out, so these two sum
	// overlapping intervals: they track the work, not the wall time.
	m.set("mediator.fetch_ms", stageMS("fetch"))
	m.set("mediator.pushdown_ms", stageMS("pushdown"))
	m.set("mediator.fuse_ms", stageMS("fuse"))
	m.set("mediator.eval_ms", stageMS("eval"))
	m.set("mediator.epoch_pin_ms", stageMS("epoch_pin"))
	m.set("mediator.singleflight_wait_ms", stageMS("singleflight_wait"))
	snapHits, snapMisses := d.val("annoda_snapshot_hits_total"), d.val("annoda_snapshot_misses_total")
	m.set("mediator.epoch_route_share", snapHits/(snapHits+snapMisses))

	m.set("lorel.plan_compile_ms", stageMS("plan_compile"))
	ph, pm, ps := d.val("annoda_plan_cache_hits_total"), d.val("annoda_plan_cache_misses_total"), d.val("annoda_plan_cache_shared_total")
	m.set("lorel.plan_cache_hit_ratio", ph/(ph+pm+ps))
}

// refreshMetricsFromScrape adds the write-path layer metrics of
// refresh_churn, per refresh.
func refreshMetricsFromScrape(d scrape, m metrics) {
	refreshes := d.val(`annoda_op_duration_seconds_count{op="refresh"}`)
	perRefresh := func(series string) float64 { return d.val(series) / refreshes }
	m.set("mediator.refresh_ms", d.histMean("annoda_op_duration_seconds", `{op="refresh"}`))
	m.set("delta.diff_ms", 1e3*perRefresh("annoda_stage_duration_seconds_sum"+stage("diff")))
	m.set("delta.patch_ms", 1e3*perRefresh("annoda_stage_duration_seconds_sum"+stage("delta_patch")))
	applied, rebuilds := d.val("annoda_deltas_applied_total"), d.val("annoda_full_rebuilds_total")
	m.set("delta.changes_per_refresh", d.val("annoda_entities_patched_total")/applied)
	m.set("delta.patched_share", applied/(applied+rebuilds))
	m.set("qcache.invalidated_per_refresh", perRefresh("annoda_cache_invalidations_total"))
	m.set("snapstore.wal_append_ms", d.histMean("annoda_wal_append_duration_seconds", ""))
	m.set("snapstore.wal_kb_per_refresh", perRefresh("annoda_wal_append_bytes_total")/1024)
	m.set("snapstore.checkpoints", d.val("annoda_checkpoints_written_total"))
	m.set("feed.publish_ms", d.histMean("annoda_feed_publish_duration_seconds", ""))
	m.set("feed.delivered", d.val("annoda_feed_events_delivered_total"))
	m.set("feed.dropped", d.val("annoda_feed_events_dropped_total"))
}

// clientMetrics records what the load generator itself saw: per-class
// medians, the sample count, p99 when the sample supports it, and the gap
// between the client's mean latency and the server's own HTTP time.
func clientMetrics(obs []obsv, m metrics) {
	for class, xs := range byClass(obs) {
		m.set("client.p50_ms."+class, median(xs))
	}
	all := latencies(obs)
	m.set("client.samples", float64(len(all)))
	m.set("client.latency_p99_ms", nan)
	if len(all) >= 1000 { // p99 needs ten samples beyond it
		m.set("client.latency_p99_ms", percentile(all, 0.99))
	}
	if srv, ok := m.get("server.http_ms"); ok {
		m.set("client.overhead_ms", mean(all)-srv)
	}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
