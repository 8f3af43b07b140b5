package fused

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/gml"
	"repro/internal/oem"
)

// Sharded fusion: the work is partitioned by gene fusion key — every
// gene, all of its parts, all of its reconciliation contributions, and all
// of the link entities it owns are handled by exactly one shard worker —
// so the expensive per-entity work (reading source models, importing
// subtrees, reconciling attributes) runs on every core with no shared
// mutable state. Each shard builds its objects in a private graph; a cheap
// serial tail absorbs the shard graphs in order (pure oid-offset
// remapping, see oem.Absorb), wires the roots and cross-shard gene→entity
// edges, and assembles the deterministic conflict list.
//
// The shard count changes nothing but the oids: one shard and many give
// the same CanonicalText, the same conflicts and the same reconciliation
// winners. Ordering invariants that make that true:
//
//   - genes merge into the global join maps in first-appearance order
//     (fusedGene.ord), so alias collisions resolve to the same winner;
//   - contributions append to a gene in global entity order — pass-1
//     contributions first, then pass-2 contributions in link-entity order
//     — because one worker owns all of a gene's contributors;
//   - reconcile() input order is therefore byte-identical per gene.

// maxFuseShards bounds the shard fan-out: fusion is memory-bound well
// before this, and more shards only add merge bookkeeping.
const maxFuseShards = 32

// fuseShards is the shard (and worker) count for one fusion:
// Config.Workers, bounded to [1, maxFuseShards]. A Workers above the core
// count is honored — the caller asked for that fan-out, and oversubscribed
// shards still interleave correctly — so single-core CI can exercise many
// shards deterministically.
func fuseShards(cfg *Config) int {
	return max(1, min(cfg.Workers, maxFuseShards))
}

// shardOfKey hash-partitions a gene fusion key (FNV-1a; deterministic
// across runs, unlike maphash).
func shardOfKey(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(n))
}

// parallelChunks splits [0, n) into contiguous chunks and runs fn on each
// from a bounded pool, blocking until all complete.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// geneEnt addresses one gene entity in its population.
type geneEnt struct {
	pop *Population
	idx int
}

// linkRec carries one link-concept entity through the sharded pipeline:
// resolved join keys and owners from the pre-pass, the per-owner
// contributions (computed where the data is read, applied where the gene
// lives), and the entity's home shard for the import.
type linkRec struct {
	pop      *Population
	idx      int
	ord      int
	fe       *fusedEntity
	owners   []*fusedGene
	contribs [][]labeledSV // parallel to owners
	imported bool          // survived the semi-join filter
	home     int           // shard whose graph holds the imported subtree
}

// fuseSharded is the fusion fuseInto runs, over fuseShards(cfg) shards.
func fuseSharded(cfg *Config, pops []*Population, priority map[string]int, rec *fuseState) (*oem.Graph, []Conflict, error) {
	nShards := fuseShards(cfg)

	// ---- Stage A: compute fusion keys, assign gene entities to shards ----
	var geneEnts []geneEnt
	for _, pop := range pops {
		if pop.Concept != "Gene" {
			continue
		}
		for i := range pop.Entities {
			geneEnts = append(geneEnts, geneEnt{pop: pop, idx: i})
		}
	}
	keys := make([]string, len(geneEnts))
	parallelChunks(len(geneEnts), nShards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ge := geneEnts[i]
			keys[i] = gml.CanonicalSymbol(ge.pop.Graph.StringUnder(ge.pop.Entities[ge.idx], "Symbol"))
		}
	})
	perShard := make([][]int, nShards)
	for i, k := range keys {
		s := shardOfKey(k, nShards)
		perShard[s] = append(perShard[s], i)
	}

	// ---- Stage B: per-shard pass 1 (gene import + fusion keys) ----
	type shardFuse struct {
		g     *oem.Graph
		genes []*fusedGene
		byKey map[string]*fusedGene
	}
	shards := make([]*shardFuse, nShards)
	errs := make([]error, nShards)
	var wg sync.WaitGroup
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sf := &shardFuse{g: oem.NewGraph(), byKey: map[string]*fusedGene{}}
			shards[s] = sf
			for _, gi := range perShard[s] {
				ge := geneEnts[gi]
				if err := fuseGeneEntity(sf.g, ge.pop, ge.idx, keys[gi], sf.byKey, &sf.genes, gi, rec != nil); err != nil {
					errs[s] = err
					return
				}
			}
			for _, fg := range sf.genes {
				fg.shard = s
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// ---- Stage C: deterministic merge of the gene tables ----
	// Global gene order is first-appearance order (ord); a key lives in
	// exactly one shard, so shard-local first appearance IS global first
	// appearance. Join-map assignment in that order makes "the later gene
	// wins the colliding alias slot" independent of the shard count.
	var genes []*fusedGene
	for _, sf := range shards {
		genes = append(genes, sf.genes...)
	}
	sort.Slice(genes, func(i, j int) bool { return genes[i].ord < genes[j].ord })
	byKey := make(map[string]*fusedGene, len(genes))
	bySymbol := map[string]*fusedGene{}
	byGeneID := map[int64]*fusedGene{}
	for _, fg := range genes {
		byKey[fg.key] = fg
	}
	for _, fg := range genes {
		for s := range fg.symbols {
			bySymbol[s] = fg
		}
		for id := range fg.geneIDs {
			byGeneID[id] = fg
		}
	}

	// ---- Stage D0: link-entity pre-pass (keys, owners, contributions) ----
	var links []*linkRec
	for _, pop := range pops {
		if pop.Concept == "Gene" {
			continue
		}
		for i := range pop.Entities {
			links = append(links, &linkRec{pop: pop, idx: i, ord: len(links)})
		}
	}
	haveGenes := len(genes) > 0
	recorded := rec != nil
	parallelChunks(len(links), nShards, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := links[i]
			e := r.pop.Entities[r.idx]
			r.fe = joinEntity(r.pop.Graph, e, r.pop.Concept)
			r.owners = ownersForKeys(bySymbol, byGeneID, r.fe)
			// Semi-join: when the query only reaches this concept through
			// gene links, unlinked entities are dead weight. They are
			// still imported when the concept is queried directly.
			if len(r.owners) == 0 && cfg.DropUnlinked[r.pop.Concept] && haveGenes {
				continue // not imported
			}
			r.imported = true
			r.home = r.ord % nShards // balance the import work
			for _, fg := range r.owners {
				lcs := contribsFor(r.pop.Graph, e, fg.geneIDs, r.pop.Concept, r.pop.Source)
				r.contribs = append(r.contribs, lcs)
				if !recorded {
					continue // owner/contribution records exist for rec.addEntity only
				}
				for _, lc := range lcs {
					r.fe.contribs = append(r.fe.contribs, ownedContrib{owner: fg.key, label: lc.label, valueKey: valueKey(lc.sv.Value)})
				}
				r.fe.owners = append(r.fe.owners, fg.key)
			}
		}
	})

	// ---- Stage D1+E: per-shard import, contribution apply, reconcile ----
	// Worker s imports the entities homed to it and applies, in global
	// entity order, every contribution whose owner gene it holds — then
	// reconciles its genes. All of a gene's contributions flow through its
	// one worker, so the reconcile input order is global entity order.
	for s := 0; s < nShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sf := shards[s]
			for _, r := range links {
				if !r.imported {
					continue
				}
				if r.home == s {
					imported, err := sf.g.Import(r.pop.Graph, r.pop.Entities[r.idx])
					if err != nil {
						errs[s] = err
						return
					}
					r.fe.oid = imported
				}
				for oi, fg := range r.owners {
					if fg.shard != s {
						continue
					}
					for _, lc := range r.contribs[oi] {
						fg.contribs[lc.label] = append(fg.contribs[lc.label], lc.sv)
					}
				}
			}
			for _, fg := range sf.genes {
				for _, label := range reconciledLabels {
					winners, conflict := reconcile(fg.key, label, fg.contribs[label], cfg.Policy, priority)
					if conflict != nil {
						if fg.conflicts == nil {
							fg.conflicts = map[string]*Conflict{}
						}
						fg.conflicts[label] = conflict
					}
					for _, w := range winners {
						atom, err := sf.g.NewAtom(w.Value)
						if err != nil {
							errs[s] = fmt.Errorf("fused: reconcile %s.%s: %v", fg.key, label, err)
							return
						}
						if err := sf.g.AddRef(fg.oid, label, atom); err != nil {
							errs[s] = err
							return
						}
					}
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// ---- Stage F: serial assembly ----
	g := oem.NewGraph()
	root := g.NewComplex()
	g.SetRoot("ANNODA-GML", root)
	offsets := make([]oem.OID, nShards)
	for s, sf := range shards {
		off, err := g.Absorb(sf.g)
		if err != nil {
			return nil, nil, err
		}
		offsets[s] = off
	}
	for _, fg := range genes {
		fg.oid += offsets[fg.shard]
		for _, part := range fg.parts {
			for i := range part.refs {
				part.refs[i].Target += offsets[fg.shard]
			}
		}
	}
	rootRefs := make([]oem.Ref, 0, len(genes)+len(links))
	for _, fg := range genes {
		rootRefs = append(rootRefs, oem.Ref{Label: "Gene", Target: fg.oid})
	}
	for _, r := range links {
		if !r.imported {
			continue
		}
		r.fe.oid += offsets[r.home]
		rootRefs = append(rootRefs, oem.Ref{Label: r.pop.Concept, Target: r.fe.oid})
	}
	if err := g.SetRefs(root, rootRefs); err != nil {
		return nil, nil, err
	}
	for _, r := range links {
		for _, fg := range r.owners {
			if err := g.AddRef(fg.oid, r.pop.Concept, r.fe.oid); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, fg := range genes {
		g.SortRefs(fg.oid)
	}
	// Conflicts in gene first-appearance order, then the reconciledLabels
	// order within a gene.
	var conflicts []Conflict
	for _, fg := range genes {
		for _, label := range reconciledLabels {
			if c := fg.conflicts[label]; c != nil {
				conflicts = append(conflicts, *c)
			}
		}
	}

	if rec != nil {
		rec.init(g, root, byKey, bySymbol, byGeneID)
		for _, fg := range genes {
			for _, part := range fg.parts {
				rec.indexGenePart(part.source, part.hash, fg)
			}
		}
		for _, r := range links {
			if !r.imported {
				continue
			}
			r.fe.source, r.fe.hash = r.pop.Source, r.pop.Hashes[r.idx]
			rec.addEntity(r.fe)
		}
	}
	return g, conflicts, g.Validate()
}
