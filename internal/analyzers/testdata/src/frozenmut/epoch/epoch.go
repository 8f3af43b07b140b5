// Fixture for the frozenmut analyzer's epoch flows: the graph of a sealed
// fused.World, and graphs reached through FusedGraph and the translation
// memo, are frozen. The World is the real
// repro/internal/fused type; the manager here mirrors the mediator's
// accessors (translated is unexported, so the fixture declares the same
// skeleton locally).
package epoch

import (
	"repro/internal/fused"
	"repro/internal/oem"
)

type stats struct{}

type manager struct{ cur *fused.World }

func (m *manager) FusedGraph() (*oem.Graph, *stats, error) {
	return m.cur.Graph(), &stats{}, nil
}

// FusedGraph hands out the published snapshot: reading is the contract,
// mutating is the panic.
func viaFusedGraph(m *manager) {
	g, _, _ := m.FusedGraph()
	_ = g.Root("r")
	g.SetRoot("r", 0) // want `SetRoot on a frozen graph`
}

// A sealed world's graph, called on directly or through an alias.
func viaWorld(w *fused.World) {
	_ = w.Graph().Root("r")
	w.Graph().SortRefs(0) // want `SortRefs on a frozen graph`
}

func viaWorldAlias(w *fused.World) {
	g := w.Graph()
	g.SetRoot("r", 0) // want `SetRoot on a frozen graph`
}

// Cloning the fused graph is the sanctioned way to derive a new world.
func cloneFused(w *fused.World) {
	c := w.Graph().Clone()
	c.SetRoot("r", 0)
}

type translation struct{ graph *oem.Graph }

func (m *manager) translated(source string) (*translation, string, error) {
	return &translation{graph: m.cur.Graph()}, "memo", nil
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

// An import reads the frozen graph it copies out of and writes the graph
// it is called on.
func viaImport(w *fused.World, dst *oem.Graph, mask *oem.Mask) {
	_, _ = dst.ImportShared(w.Graph(), 1, map[oem.OID]oem.OID{})
	_, _ = w.Graph().ImportShared(dst, 1, map[oem.OID]oem.OID{}) // want `ImportShared on a frozen graph`
	_, _ = dst.ImportRefs(1, w.Graph(), nil, mask, nil)
	_, _ = w.Graph().ImportRefs(1, dst, nil, mask, nil) // want `ImportRefs on a frozen graph`
}
