// Package navigate implements ANNODA's web-link navigation: resolving the
// url atoms that cross-reference objects between sources, and interactive
// sessions over them (Figure 5(c): "the user can retrieve information of
// the particular object by following the provided web-links").
//
// It also implements the hypertext-navigation baseline — the first of the
// four integration approaches the paper surveys (Entrez/SRS style): a
// multi-source question is answered by chasing links one round trip at a
// time, with no global schema and no reconciliation.
package navigate

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/oem"
	"repro/internal/wrapper"
)

// Target locates an entity inside a wrapped source's OML model.
type Target struct {
	Source string
	OID    oem.OID
}

// Resolver maps web-link urls to the entities they identify. Every entity
// carrying a WebLink url atom is indexed; LocusLink's Links edges point at
// GO/OMIM WebLink urls, so cross-source navigation closes the loop.
type Resolver struct {
	mu    sync.RWMutex
	reg   *wrapper.Registry
	index map[string]Target
}

// NewResolver indexes every registered source.
func NewResolver(reg *wrapper.Registry) (*Resolver, error) {
	r := &Resolver{reg: reg}
	if err := r.Reindex(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reindex rebuilds the url index from current source models.
func (r *Resolver) Reindex() error {
	idx := make(map[string]Target)
	for _, w := range r.reg.All() {
		g, err := w.Model()
		if err != nil {
			return err
		}
		root := g.Root(w.Name())
		ro := g.Get(root)
		if ro == nil {
			continue
		}
		for _, ref := range ro.Refs {
			ent := ref.Target
			for _, u := range g.Children(ent, "WebLink") {
				o := g.Get(u)
				if o != nil && o.Kind == oem.KindURL {
					idx[o.Str] = Target{Source: w.Name(), OID: ent}
				}
			}
		}
	}
	r.mu.Lock()
	r.index = idx
	r.mu.Unlock()
	return nil
}

// Resolve returns the entity a url identifies.
func (r *Resolver) Resolve(url string) (Target, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.index[url]
	return t, ok
}

// OutLinks lists the urls reachable from an entity: its own url atoms plus
// any under a nested Links object, sorted.
func (r *Resolver) OutLinks(t Target) ([]string, error) {
	w := r.reg.Get(t.Source)
	if w == nil {
		return nil, fmt.Errorf("navigate: unknown source %q", t.Source)
	}
	g, err := w.Model()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	var walk func(id oem.OID, depth int)
	walk = func(id oem.OID, depth int) {
		o := g.Get(id)
		if o == nil || depth > 2 {
			return
		}
		for _, ref := range o.Refs {
			c := g.Get(ref.Target)
			if c == nil {
				continue
			}
			if c.Kind == oem.KindURL && !seen[c.Str] {
				seen[c.Str] = true
				out = append(out, c.Str)
			}
			if c.IsComplex() && strings.EqualFold(ref.Label, "Links") {
				walk(ref.Target, depth+1)
			}
		}
	}
	walk(t.OID, 0)
	sort.Strings(out)
	return out, nil
}

// Render renders the entity's object view (Figure 5(c)) as text: the
// source, each atomic field, and the outgoing web-links.
func (r *Resolver) Render(t Target) (string, error) {
	w := r.reg.Get(t.Source)
	if w == nil {
		return "", fmt.Errorf("navigate: unknown source %q", t.Source)
	}
	g, err := w.Model()
	if err != nil {
		return "", err
	}
	o := g.Get(t.OID)
	if o == nil {
		return "", fmt.Errorf("navigate: missing object %v in %s", t.OID, t.Source)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s object %s]\n", t.Source, t.OID)
	for _, ref := range o.Refs {
		c := g.Get(ref.Target)
		if c == nil {
			continue
		}
		if c.IsAtomic() {
			fmt.Fprintf(&sb, "  %-14s %s\n", ref.Label, c.AtomString())
		}
	}
	links, err := r.OutLinks(t)
	if err != nil {
		return "", err
	}
	for _, l := range links {
		fmt.Fprintf(&sb, "  link           %s\n", l)
	}
	return sb.String(), nil
}

// Session is a browser-like navigation session with history.
type Session struct {
	r       *Resolver
	history []Target
	pos     int
	// Trips counts resolution round-trips — the cost metric the hypertext
	// baseline is judged on in E10.
	Trips int
}

// NewSession starts an empty session.
func NewSession(r *Resolver) *Session { return &Session{r: r, pos: -1} }

// Open navigates to a url, truncating any forward history.
func (s *Session) Open(url string) (Target, error) {
	t, ok := s.r.Resolve(url)
	if !ok {
		return Target{}, fmt.Errorf("navigate: dead link %q", url)
	}
	s.Trips++
	s.history = append(s.history[:s.pos+1], t)
	s.pos = len(s.history) - 1
	return t, nil
}

// Current returns the current target.
func (s *Session) Current() (Target, bool) {
	if s.pos < 0 {
		return Target{}, false
	}
	return s.history[s.pos], true
}

// Back moves one step back in history.
func (s *Session) Back() (Target, bool) {
	if s.pos <= 0 {
		return Target{}, false
	}
	s.pos--
	return s.history[s.pos], true
}

// FollowAll opens every out-link of the current target, returning the
// targets visited (breadth-1 expansion; dead links are skipped).
func (s *Session) FollowAll() ([]Target, error) {
	cur, ok := s.Current()
	if !ok {
		return nil, fmt.Errorf("navigate: no current object")
	}
	links, err := s.r.OutLinks(cur)
	if err != nil {
		return nil, err
	}
	var out []Target
	for _, l := range links {
		if t, ok := s.r.Resolve(l); ok {
			s.Trips++
			out = append(out, t)
		}
	}
	return out, nil
}
