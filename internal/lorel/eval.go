package lorel

import (
	"sync"
	"time"

	"repro/internal/oem"
)

// Result is the evaluation output: a fresh OEM graph holding the "answer"
// complex object. "In Lorel, the result is always a collection of OEM
// objects, and duplicate elimination is by oid" (paper §4.1) — the Origin
// map records which source object each answer object was coerced from, and
// duplicates (same select label, same source oid) are eliminated.
type Result struct {
	Graph  *oem.Graph
	Answer oem.OID
	// Origin maps answer-graph oids back to the queried graph's oids;
	// navigation uses it to follow answers back to their sources.
	Origin map[oem.OID]oem.OID
	// Bindings counts the variable assignments that satisfied the where
	// clause (for optimizer statistics).
	Bindings int
	// Answer import, the stage after matching: how many objects were copied
	// into Graph, and when and for how long (two clock reads per evaluation).
	Imported    int
	ImportStart time.Time
	ImportTime  time.Duration

	// renderings is the memo slot behind Rendering.
	renderMu   sync.Mutex
	renderings []rendering
}

// rendering is one memoized byte rendering of a Result.
type rendering struct {
	kind  string
	bytes []byte
}

// Size returns the number of edges on the answer object.
func (r *Result) Size() int {
	return len(r.Graph.Get(r.Answer).Refs)
}

// Rendering returns the byte rendering of r named kind: the memoized one
// when the slot holds it (memo is true), otherwise whatever build returns.
//
// A Result is read-only once evaluated, and the mediator's result cache hands
// the same *Result to every request it answers, so a rendering that is a pure
// function of the Result (a JSON fragment, a text dump) is the same for all
// of them. The slot's lifetime is the Result's: whatever drops the Result —
// eviction, expiry, invalidation — drops its renderings with it.
//
// retain says whether freshly built bytes are kept. Pass false while nothing
// shows the Result will be handed out again (a cache miss, an uncached
// manager) and true once it has been (a hit), so a one-shot answer never
// pins its encoding. build runs with no lock held: concurrent first callers
// may each build, the first to finish is kept and returned to all. The bytes
// are shared; callers must not modify them.
func (r *Result) Rendering(kind string, retain bool, build func() ([]byte, error)) (b []byte, memo bool, err error) {
	if b := r.rendered(kind, nil); b != nil {
		return b, true, nil
	}
	b, err = build()
	if err != nil || !retain {
		return b, false, err
	}
	return r.rendered(kind, b), false, nil
}

// rendered returns the rendering kept under kind. When there is none it
// keeps fresh (if non-nil) and returns that.
func (r *Result) rendered(kind string, fresh []byte) []byte {
	r.renderMu.Lock()
	defer r.renderMu.Unlock()
	for _, rd := range r.renderings {
		if rd.kind == kind {
			return rd.bytes
		}
	}
	if fresh != nil {
		r.renderings = append(r.renderings, rendering{kind: kind, bytes: fresh})
	}
	return fresh
}

// Eval runs a query against one OEM graph by compiling it and evaluating
// the plan once. Callers that evaluate the same query shape repeatedly
// should Compile once and reuse the Plan.
func Eval(g *oem.Graph, q *Query) (*Result, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Eval(g)
}

func litObject(l *Literal) *oem.Object {
	switch l.Kind {
	case LitString:
		return &oem.Object{Kind: oem.KindString, Str: l.S}
	case LitInt:
		return &oem.Object{Kind: oem.KindInt, Int: l.I}
	case LitReal:
		return &oem.Object{Kind: oem.KindReal, Real: l.F}
	case LitBool:
		return &oem.Object{Kind: oem.KindBool, Bool: l.B}
	}
	return &oem.Object{}
}
