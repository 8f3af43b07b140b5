package oem

// A frozen graph keeps a memo of postings: values a query engine derives
// from the graph as seen under one mask — which objects a label path binds,
// which of them an existence test holds for — so the next query asking the
// same thing reads them instead of walking the graph again. The memo lives
// and dies with the graph (an epoch's graph, for the mediator), is keyed by
// the mask's identity, and is bounded: the engine keeps only what it found
// non-empty, and past maxPostings values nothing more is kept.

// PostingKey names one memoized posting: what was derived from the graph
// under Mask (nil is the whole graph), starting at the object Root, along
// Path — the deriving engine's encoding of the steps it followed.
type PostingKey struct {
	Mask *Mask
	Root OID
	Path string
}

// maxPostings bounds the values one graph's memo keeps.
const maxPostings = 1 << 12

// Frozen reports whether the graph is immutable (see Freeze).
func (g *Graph) Frozen() bool { return g.frozen.Load() }

// Posting returns the value kept under key, if any. Only frozen graphs keep
// postings.
func (g *Graph) Posting(key PostingKey) (any, bool) {
	if !g.frozen.Load() {
		return nil, false
	}
	return g.postings.Load(key)
}

// KeepPosting keeps v under key and returns the value kept there: v, or the
// one a concurrent caller kept first. A graph that is not frozen, or that
// already keeps maxPostings values, keeps nothing and returns v.
func (g *Graph) KeepPosting(key PostingKey, v any) any {
	if !g.frozen.Load() || g.numPostings.Load() >= maxPostings {
		return v
	}
	kept, loaded := g.postings.LoadOrStore(key, v)
	if !loaded {
		g.numPostings.Add(1)
	}
	return kept
}

// Postings returns how many values the graph's memo keeps.
func (g *Graph) Postings() int { return int(g.numPostings.Load()) }
