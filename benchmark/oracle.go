package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mediator"
)

// oracle answers requests by a route the measured system does not take: no
// result cache (so no epoch either) and no pushdown — the plain per-query
// fetch, fuse and evaluate pipeline.
type oracle struct {
	sys  *core.System
	memo map[string]*expected
}

// expected is the oracle's answer in the two shapes the API returns.
type expected struct {
	rows    []askRow // /api/ask
	answers int      // /api/query
}

// askRow is the part of an integrated-view row the check compares, in the
// view's order (sorted by symbol).
type askRow struct {
	GeneID int64    `json:"gene_id"`
	Symbol string   `json:"symbol"`
	GoIDs  []string `json:"go_ids"`
	MimIDs []int64  `json:"mim_ids"`
}

func (a askRow) equal(b askRow) bool {
	return a.GeneID == b.GeneID && a.Symbol == b.Symbol &&
		slices.Equal(a.GoIDs, b.GoIDs) && slices.Equal(a.MimIDs, b.MimIDs)
}

var oracleOptions = mediator.Options{DisableCache: true, DisablePushdown: true}

// corpusFor generates the corpus annoda-server builds for -genes n.
func corpusFor(genes int) *datagen.Corpus {
	cfg := datagen.DefaultConfig()
	cfg.Genes = genes
	return datagen.Generate(cfg)
}

// newOracle builds an independent system over the same corpus, for the
// HTTP workloads.
func newOracle(c *datagen.Corpus) (*oracle, error) {
	sys, err := core.New(c, oracleOptions)
	if err != nil {
		return nil, err
	}
	if err := sys.PlugInProteins(); err != nil {
		return nil, err
	}
	return &oracle{sys: sys, memo: map[string]*expected{}}, nil
}

// oracleOver builds an oracle over a live system's own sources, so that it
// sees the edits refresh_churn made to them.
func oracleOver(live *core.System) *oracle {
	ref := *live
	ref.Manager = mediator.New(live.Registry, live.Global, oracleOptions)
	return &oracle{sys: &ref, memo: map[string]*expected{}}
}

func viewRows(v *core.View) []askRow {
	rows := make([]askRow, 0, len(v.Rows))
	for _, r := range v.Rows {
		rows = append(rows, askRow{GeneID: r.GeneID, Symbol: r.Symbol, GoIDs: r.GoIDs, MimIDs: r.MimIDs})
	}
	return rows
}

func (o *oracle) answer(rq request) (*expected, error) {
	if e, ok := o.memo[rq.id()]; ok {
		return e, nil
	}
	e := &expected{}
	if rq.ask != nil {
		v, _, err := o.sys.Ask(*rq.ask)
		if err != nil {
			return nil, err
		}
		e.rows = viewRows(v)
	} else {
		res, _, err := o.sys.Query(rq.query)
		if err != nil {
			return nil, err
		}
		e.answers = res.Size()
	}
	o.memo[rq.id()] = e
	return e, nil
}

// checkRows compares an integrated view with the oracle's.
func (o *oracle) checkRows(rq request, got []askRow) error {
	want, err := o.answer(rq)
	if err != nil {
		return fmt.Errorf("oracle could not answer %s: %v", rq.id(), err)
	}
	if !slices.EqualFunc(got, want.rows, askRow.equal) {
		return fmt.Errorf("%s: %d rows differ from the oracle's %d", rq.id(), len(got), len(want.rows))
	}
	return nil
}

// checkCount compares a query's answer count (and, for a point lookup, the
// presence of its key in the answer text) with the oracle's.
func (o *oracle) checkCount(rq request, answers int, text string) error {
	want, err := o.answer(rq)
	if err != nil {
		return fmt.Errorf("oracle could not answer %s: %v", rq.id(), err)
	}
	if answers != want.answers {
		return fmt.Errorf("%s: %d answers, oracle has %d", rq.id(), answers, want.answers)
	}
	if rq.key != "" && !strings.Contains(text, rq.key) {
		return fmt.Errorf("%s: key %q missing from the answer text", rq.id(), rq.key)
	}
	return nil
}

// checkBody compares one saved HTTP response body with the oracle's answer.
func (o *oracle) checkBody(rq request, body []byte) error {
	var got struct {
		Rows    []askRow `json:"rows"`
		Answers int      `json:"answers"`
		Text    string   `json:"text"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: undecodable answer: %v", rq.id(), err)
	}
	if rq.ask != nil {
		return o.checkRows(rq, got.Rows)
	}
	return o.checkCount(rq, got.Answers, got.Text)
}

// checkSaved verifies every saved body and returns the mismatches.
func (o *oracle) checkSaved(bodies []saved) []string {
	var bad []string
	for _, s := range bodies {
		if err := o.checkBody(s.rq, s.body); err != nil {
			bad = append(bad, err.Error())
		}
	}
	return bad
}
