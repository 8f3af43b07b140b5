package match

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wrapper"
)

// Options tunes the matcher.
type Options struct {
	// Threshold below which a correspondence is discarded (labels stay
	// unmatched). Zero means DefaultThreshold.
	Threshold float64
	// NameWeight/TypeWeight/StructWeight blend the similarity components;
	// zeroes mean the defaults (0.7/0.2/0.1).
	NameWeight   float64
	TypeWeight   float64
	StructWeight float64
}

// DefaultThreshold is the score below which labels are left unmatched.
const DefaultThreshold = 0.45

func (o Options) normalized() Options {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.NameWeight == 0 && o.TypeWeight == 0 && o.StructWeight == 0 {
		o.NameWeight, o.TypeWeight, o.StructWeight = 0.7, 0.2, 0.1
	}
	return o
}

// Correspondence is one matched label pair with its similarity score.
type Correspondence struct {
	A, B  string
	Score float64
}

// Result is the output of a matching run between schema A and schema B.
type Result struct {
	SourceA, SourceB string
	Pairs            []Correspondence
	UnmatchedA       []string
	UnmatchedB       []string
}

// Similarity scores one label pair under the options: a weighted blend of
// name similarity, type compatibility, and structural agreement
// (optionality/repeatability flags).
func Similarity(a, b wrapper.LabelInfo, opts Options) float64 {
	o := opts.normalized()
	name := NameSimilarity(a.Name, b.Name)
	typ := TypeCompatibility(a.Kind, b.Kind)
	structural := 0.0
	if a.Repeatable == b.Repeatable {
		structural += 0.5
	}
	if a.Optional == b.Optional {
		structural += 0.5
	}
	return o.NameWeight*name + o.TypeWeight*typ + o.StructWeight*structural
}

// SimilarityMatrix computes the full pairwise matrix between two label
// lists.
func SimilarityMatrix(as, bs []wrapper.LabelInfo, opts Options) [][]float64 {
	m := make([][]float64, len(as))
	for i, a := range as {
		m[i] = make([]float64, len(bs))
		for j, b := range bs {
			m[i][j] = Similarity(a, b, opts)
		}
	}
	return m
}

// Match runs MDSM between two schemas: it computes the similarity matrix
// and extracts the optimal one-to-one correspondence with the Hungarian
// method, discarding pairs under the threshold.
func Match(a, b wrapper.Schema, opts Options) Result {
	return matchWith(a, b, opts, func(sim [][]float64) []int {
		return MaximizeAssignment(sim)
	})
}

// MatchGreedy is the E9 baseline: repeatedly take the highest remaining
// cell. Locally optimal, globally not.
func MatchGreedy(a, b wrapper.Schema, opts Options) Result {
	return matchWith(a, b, opts, greedyAssign)
}

func greedyAssign(sim [][]float64) []int {
	n := len(sim)
	if n == 0 {
		return nil
	}
	m := len(sim[0])
	type cell struct {
		i, j int
		s    float64
	}
	var cells []cell
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			cells = append(cells, cell{i, j, sim[i][j]})
		}
	}
	sort.Slice(cells, func(x, y int) bool {
		if cells[x].s != cells[y].s {
			return cells[x].s > cells[y].s
		}
		if cells[x].i != cells[y].i {
			return cells[x].i < cells[y].i
		}
		return cells[x].j < cells[y].j
	})
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	usedCol := make([]bool, m)
	for _, c := range cells {
		if c.s <= 0 || assign[c.i] >= 0 || usedCol[c.j] {
			continue
		}
		assign[c.i] = c.j
		usedCol[c.j] = true
	}
	return assign
}

// MatchStable is the second E9 baseline: Gale–Shapley stable marriage with
// rows proposing, preferences ordered by similarity.
func MatchStable(a, b wrapper.Schema, opts Options) Result {
	return matchWith(a, b, opts, stableAssign)
}

func stableAssign(sim [][]float64) []int {
	n := len(sim)
	if n == 0 {
		return nil
	}
	m := len(sim[0])
	pref := make([][]int, n) // each row's columns in descending similarity
	for i := 0; i < n; i++ {
		pref[i] = make([]int, m)
		for j := 0; j < m; j++ {
			pref[i][j] = j
		}
		row := sim[i]
		sort.SliceStable(pref[i], func(x, y int) bool { return row[pref[i][x]] > row[pref[i][y]] })
	}
	next := make([]int, n)    // next column index to propose to
	colMate := make([]int, m) // column's current row, -1 free
	for j := range colMate {
		colMate[j] = -1
	}
	free := make([]int, 0, n)
	for i := 0; i < n; i++ {
		free = append(free, i)
	}
	for len(free) > 0 {
		i := free[len(free)-1]
		if next[i] >= m {
			free = free[:len(free)-1]
			continue
		}
		j := pref[i][next[i]]
		next[i]++
		cur := colMate[j]
		if cur == -1 {
			colMate[j] = i
			free = free[:len(free)-1]
		} else if sim[i][j] > sim[cur][j] {
			colMate[j] = i
			free[len(free)-1] = cur
		}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for j, i := range colMate {
		if i >= 0 && sim[i][j] > 0 {
			assign[i] = j
		}
	}
	return assign
}

func matchWith(a, b wrapper.Schema, opts Options, assignFn func([][]float64) []int) Result {
	o := opts.normalized()
	res := Result{SourceA: a.Source, SourceB: b.Source}
	sim := SimilarityMatrix(a.Labels, b.Labels, o)
	assign := assignFn(sim)
	usedB := map[int]bool{}
	for i, j := range assign {
		if j < 0 || sim[i][j] < o.Threshold {
			res.UnmatchedA = append(res.UnmatchedA, a.Labels[i].Name)
			continue
		}
		usedB[j] = true
		res.Pairs = append(res.Pairs, Correspondence{
			A:     a.Labels[i].Name,
			B:     b.Labels[j].Name,
			Score: sim[i][j],
		})
	}
	for j, l := range b.Labels {
		if !usedB[j] {
			res.UnmatchedB = append(res.UnmatchedB, l.Name)
		}
	}
	sort.Slice(res.Pairs, func(x, y int) bool { return res.Pairs[x].A < res.Pairs[y].A })
	return res
}

// TotalScore sums the pair scores; the Hungarian guarantee is that no other
// one-to-one assignment beats it.
func (r *Result) TotalScore() float64 {
	t := 0.0
	for _, p := range r.Pairs {
		t += p.Score
	}
	return t
}

// Evaluate scores a result against ground truth (map from A-label to
// B-label) and returns precision, recall and F1.
func Evaluate(r Result, truth map[string]string) (precision, recall, f1 float64) {
	if len(r.Pairs) == 0 && len(truth) == 0 {
		return 1, 1, 1
	}
	correct := 0
	for _, p := range r.Pairs {
		if truth[p.A] == p.B {
			correct++
		}
	}
	if len(r.Pairs) > 0 {
		precision = float64(correct) / float64(len(r.Pairs))
	}
	if len(truth) > 0 {
		recall = float64(correct) / float64(len(truth))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}

// String renders the result as a small table for the CLI and experiments.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "match %s -> %s\n", r.SourceA, r.SourceB)
	for _, p := range r.Pairs {
		fmt.Fprintf(&sb, "  %-14s -> %-14s %.3f\n", p.A, p.B, p.Score)
	}
	if len(r.UnmatchedA) > 0 {
		fmt.Fprintf(&sb, "  unmatched in %s: %s\n", r.SourceA, strings.Join(r.UnmatchedA, ", "))
	}
	if len(r.UnmatchedB) > 0 {
		fmt.Fprintf(&sb, "  unmatched in %s: %s\n", r.SourceB, strings.Join(r.UnmatchedB, ", "))
	}
	return sb.String()
}
