// Fixture for the frozenmut analyzer's epoch flows: graphs reached
// through FusedGraph, WithFusedGraph, and pinEpoch are published frozen
// snapshots. The manager here mirrors the mediator's shape (pinEpoch is
// unexported, so the fixture declares the same skeleton locally).
package epoch

import "repro/internal/oem"

type stats struct{}

type fuseState struct{ graph *oem.Graph }

type provenance struct {
	atoms map[string]map[oem.OID]struct{}
}

type snapshot struct {
	fs   *fuseState
	prov *provenance
}

type manager struct{ cur *snapshot }

func (m *manager) FusedGraph() (*oem.Graph, *stats, error) {
	return m.cur.fs.graph, &stats{}, nil
}

func (m *manager) WithFusedGraph(fn func(*oem.Graph, *stats) error) error {
	return fn(m.cur.fs.graph, &stats{})
}

func (m *manager) pinEpoch() (*snapshot, bool, error) {
	return m.cur, false, nil
}

func (m *manager) publishLocked(s *snapshot) { m.cur = s }

// FusedGraph hands out the published snapshot: reading is the contract,
// mutating is the panic.
func viaFusedGraph(m *manager) {
	g, _, _ := m.FusedGraph()
	_ = g.Root("r")
	g.SetRoot("r", 0) // want `SetRoot on a frozen graph`
}

// The WithFusedGraph callback's graph parameter is frozen.
func viaCallback(m *manager) error {
	return m.WithFusedGraph(func(g *oem.Graph, _ *stats) error {
		g.RemoveRefs(0, "x") // want `RemoveRefs on a frozen graph`
		return nil
	})
}

// The pinned epoch's graph, reached by field path or through an alias.
func viaPinEpoch(m *manager) {
	ep, _, _ := m.pinEpoch()
	_ = ep.fs.graph.Root("r")
	ep.fs.graph.SortRefs(0) // want `SortRefs on a frozen graph`
}

func viaPinEpochAlias(m *manager) {
	ep, _, _ := m.pinEpoch()
	g := ep.fs.graph
	g.SetRoot("r", 0) // want `SetRoot on a frozen graph`
}

// Cloning the fused graph is the sanctioned way to derive a new world.
func cloneFused(m *manager) {
	g, _, _ := m.FusedGraph()
	c := g.Clone()
	c.SetRoot("r", 0)
}

type translation struct{ graph *oem.Graph }

func (m *manager) translated(source string) (*translation, string, error) {
	return &translation{graph: m.cur.fs.graph}, "memo", nil
}

// The translated population is the per-source memo every fetch of that
// source version shares: importing out of it is fine, building into it is
// the panic.
func viaTranslated(m *manager, dst *oem.Graph) {
	tl, _, _ := m.translated("GO")
	_, _ = dst.Import(tl.graph, 1)
	tl.graph.NewString("late") // want `NewString on a frozen graph`
}

func viaTranslatedAlias(m *manager) {
	tl, _, _ := m.translated("GO")
	g := tl.graph
	g.SetRoot("r", 0) // want `SetRoot on a frozen graph`
}

// An epoch's provenance sets are frozen with it: building them is fine until
// publishLocked makes the epoch the serving one, a lint error after.
func provAroundPublish(m *manager, s *snapshot) {
	s.prov = &provenance{atoms: map[string]map[oem.OID]struct{}{}}
	s.prov.atoms["Protein"] = map[oem.OID]struct{}{7: {}}
	m.publishLocked(s)
	s.prov.atoms["Protein"][8] = struct{}{} // want `write to the provenance of a published epoch`
	delete(s.prov.atoms, "Protein")         // want `write to the provenance of a published epoch`
	s.prov = nil                            // want `write to the provenance of a published epoch`
}

func provViaPinEpoch(m *manager) int {
	ep, _, _ := m.pinEpoch()
	ep.prov.atoms["Disease"] = nil // want `write to the provenance of a published epoch`
	return len(ep.prov.atoms["Protein"])
}

// The masked import reads the frozen graph it copies out of and writes the
// graph it is called on.
func viaMaskedImport(m *manager, dst *oem.Graph, mask *oem.Mask) {
	ep, _, _ := m.pinEpoch()
	_, _ = dst.ImportMasked(ep.fs.graph, 1, map[oem.OID]oem.OID{}, mask)
	_, _ = ep.fs.graph.ImportMasked(dst, 1, map[oem.OID]oem.OID{}, mask) // want `ImportMasked on a frozen graph`
}
