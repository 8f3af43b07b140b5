package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
)

// request is one generated operation, in both the form the HTTP workloads
// send and the form the in-process workload, the trace pass and the oracle
// execute. The two describe the same question.
type request struct {
	class  string // latency class, e.g. "ask_hit", "lorel_epoch"
	method string
	path   string // with query string
	body   []byte

	ask   *core.Question // nil for a raw Lorel query
	query string
	key   string // point lookups: the value the answer text must contain
}

// id identifies the question (not the class): the oracle memoizes on it.
func (r request) id() string { return r.method + " " + r.path + " " + string(r.body) }

// askJSON is the /api/ask request body.
type askJSON struct {
	Include    []string   `json:"include,omitempty"`
	Exclude    []string   `json:"exclude,omitempty"`
	Combine    string     `json:"combine,omitempty"`
	Conditions []condJSON `json:"conditions,omitempty"`
}

type condJSON struct {
	Field string `json:"field"`
	Op    string `json:"op"`
	Value string `json:"value"`
}

func askRequest(class string, q core.Question) request {
	body := askJSON{Include: q.Include, Exclude: q.Exclude}
	if q.Combine == core.CombineAny {
		body.Combine = "any"
	}
	for _, c := range q.Conditions {
		body.Conditions = append(body.Conditions, condJSON{Field: c.Field, Op: c.Op, Value: c.Value})
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err) // strings and slices of strings always marshal
	}
	return request{class: class, method: http.MethodPost, path: "/api/ask", body: raw, ask: &q}
}

func queryRequest(class, src, key string) request {
	return request{
		class: class, method: http.MethodGet,
		path:  "/api/query?q=" + url.QueryEscape(src),
		query: src, key: key,
	}
}

// e13Questions are the five questions of BenchmarkE13_DistinctQuestionsCached.
func e13Questions() []core.Question {
	return []core.Question{
		{Include: []string{"GO"}, Exclude: []string{"OMIM"}},
		{Include: []string{"OMIM"}},
		{Include: []string{"GO", "OMIM"}, Combine: core.CombineAny},
		{Include: []string{"GO"}, Conditions: []core.Condition{{Field: "Symbol", Op: "like", Value: "A%"}}},
		{Exclude: []string{"GO"}},
	}
}

// conjuncts are where-clause additions the mediator never pushes down (they
// are existence tests over links and multi-step paths), so adding any subset
// leaves a query's route alone: E16's ten, then six more so that a 16-bit
// mask gives 65,536 distinct strings. None mentions G.Protein: the
// lorel_pipeline class relies on ProtDB staying pruned.
var conjuncts = [16]string{
	" and exists G.Annotation",
	" and exists G.Annotation.GoID",
	" and exists G.Annotation.Evidence",
	" and exists G.Annotation.Term",
	" and exists G.Annotation.Organism",
	" and exists G.Links",
	" and exists G.Links.GO",
	" and exists G.Links.OMIM",
	" and not exists G.Disease",
	" and not exists G.Disease.MimNumber",
	" and exists G.Annotation.Symbol",
	" and not exists G.Disease.Title",
	" and not exists G.Disease.Inheritance",
	" and not exists G.Disease.Position",
	" and not exists G.Disease.WebLink",
	" and not exists G.Disease.Symbol",
}

const (
	epochWhere    = " where exists G.Annotation and not exists G.Disease and exists G.Protein"
	pipelineWhere = " where exists G.Annotation and not exists G.Disease"
)

// selectLabels are the projections the lorel_epoch and lorel_pipeline
// classes rotate through.
var selectLabels = [...]string{"Symbol", "GeneID", "Organism", "Position", "Description", "WebLink"}

// epochQuery is refresh_churn's four-concept epoch-route read. It projects
// Description, the field the writer edits, so a stale answer is visible.
const epochQuery = "select G.Description from ANNODA-GML.Gene G" + epochWhere

func maskedQuery(sel, where string, mask uint16) string {
	var sb strings.Builder
	sb.WriteString("select ")
	sb.WriteString(sel)
	sb.WriteString(" from ANNODA-GML.Gene G")
	sb.WriteString(where)
	for bit, c := range conjuncts {
		if mask&(1<<bit) != 0 {
			sb.WriteString(c)
		}
	}
	return sb.String()
}

// distinctPattern is the fixed period-10 class mix of distinct_query:
// E lorel_epoch 60%, A ask_cond 20%, P lorel_pipeline 10%, G lorel_epoch_full 10%.
const distinctPattern = "EEAEPEAEGE"

// plan is a workload's seeded request list: the priming requests, then
// at(i) for i = 0, 1, 2, ... The same seed gives the same list.
type plan struct {
	prime []request
	at    func(i int) request
}

func newPlan(workload string, c *datagen.Corpus, seed uint64) plan {
	rng := datagen.NewRNG(seed ^ 0xA11D0DA) // keep workload draws apart from the corpus seed's stream
	switch workload {
	case wlHotAsk:
		var p plan
		for _, q := range e13Questions() {
			p.prime = append(p.prime, askRequest("ask_hit", q))
		}
		// Round-robin: every round asks each question once, in an order
		// drawn afresh per round. With a fixed order the two connections
		// would pair the same questions for the whole run, and which pairs
		// (answers range from 9 KB to 315 KB) would depend on the seed.
		n := len(p.prime)
		salt := rng.Next()
		p.at = func(i int) request {
			order := make([]int, n)
			for j := range order {
				order[j] = j
			}
			datagen.Shuffle(datagen.NewRNG(salt^uint64(i/n)), order)
			return p.prime[order[i%n]]
		}
		return p

	case wlDistinctQuery:
		// An odd multiplier makes n -> a*n+b a bijection on 16 bits: masks
		// are drawn without replacement.
		a, b := uint16(rng.Next())|1, uint16(rng.Next())
		letters := []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
		datagen.Shuffle(rng, letters)
		nonce := rng.Intn(1 << 20)
		nLabels := len(selectLabels)
		classAt := func(class byte, n int) request {
			switch class {
			case 'E':
				return queryRequest("lorel_epoch",
					maskedQuery("G."+selectLabels[n%nLabels], epochWhere, a*uint16(n/nLabels)+b), "")
			case 'P':
				return queryRequest("lorel_pipeline",
					maskedQuery("G."+selectLabels[n%nLabels], pipelineWhere, a*uint16(n/nLabels)+b), "")
			case 'G':
				return queryRequest("lorel_epoch_full", maskedQuery("G", epochWhere, a*uint16(n)+b), "")
			default: // 'A'
				// The second condition is always true and never repeats: it
				// keeps the question distinct while the prefix keeps the
				// answer (about 1/26 of the genes) and the pushdown route.
				return askRequest("ask_cond", core.Question{
					Include: []string{"GO"},
					Conditions: []core.Condition{
						{Field: "Symbol", Op: "like", Value: string(letters[n%len(letters)]) + "%"},
						{Field: "Organism", Op: "!=", Value: fmt.Sprintf("n%d", nonce+n)},
					},
				})
			}
		}
		// rank[pos] is how many earlier slots of the period share pos's class.
		var perPeriod [256]int
		var rank [len(distinctPattern)]int
		for pos := range distinctPattern {
			cl := distinctPattern[pos]
			rank[pos] = perPeriod[cl]
			perPeriod[cl]++
		}
		at := func(i int) request {
			pos := i % len(distinctPattern)
			cl := distinctPattern[pos]
			return classAt(cl, (i/len(distinctPattern))*perPeriod[cl]+rank[pos])
		}
		// Prime with one request per class, drawn from far down the list.
		const far = 1 << 30
		return plan{
			prime: []request{classAt('E', far), classAt('A', far), classAt('P', far), classAt('G', far)},
			at:    at,
		}

	case wlPointLookup:
		n := len(c.Genes)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		datagen.Shuffle(rng, perm)
		at := func(i int) request {
			if i%2 == 0 {
				g := c.Genes[perm[(i/2)%n]]
				return queryRequest("by_symbol",
					fmt.Sprintf("select G from ANNODA-GML.Gene G where G.Symbol = %q", g.Symbol), g.Symbol)
			}
			g := c.Genes[perm[(i/2+n/2)%n]]
			id := strconv.Itoa(g.LocusID)
			return queryRequest("by_geneid", "select G from ANNODA-GML.Gene G where G.GeneID = "+id, id)
		}
		// Prime both query shapes with the last keys of the cycle.
		return plan{prime: []request{at(2*n - 2), at(2*n - 1)}, at: at}

	case wlRefreshChurn:
		qs := e13Questions()[:3]
		reads := []request{
			askRequest("ask", qs[0]), askRequest("ask", qs[1]), askRequest("ask", qs[2]),
			queryRequest("epoch_query", epochQuery, ""),
		}
		off := rng.Intn(len(reads))
		return plan{prime: reads, at: func(i int) request { return reads[(i+off)%len(reads)] }}
	}
	panic("unknown workload " + workload)
}
