package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oem"
	"repro/internal/wrapper"
)

// bruteForceMin finds the optimal assignment cost by trying every
// permutation (n <= 7).
func bruteForceMin(cost [][]float64) float64 {
	n := len(cost)
	m := len(cost[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.MaxFloat64
	var recur func(i int, used []bool, acc float64)
	recur = func(i int, used []bool, acc float64) {
		if acc >= best {
			return
		}
		if i == n {
			best = acc
			return
		}
		for j := 0; j < m; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			recur(i+1, used, acc+cost[i][j])
			used[j] = false
		}
	}
	recur(0, make([]bool, m), 0)
	return best
}

func assignCost(cost [][]float64, assign []int) float64 {
	t := 0.0
	for i, j := range assign {
		if j >= 0 {
			t += cost[i][j]
		}
	}
	return t
}

func TestHungarianKnownCase(t *testing.T) {
	// Classic example with unique optimum 5: (0,1)=1, (1,0)=2, (2,2)=2.
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	got := Hungarian(cost)
	if c := assignCost(cost, got); c != 5 {
		t.Fatalf("cost = %v (assign %v), want 5", c, got)
	}
}

func TestHungarianRectangular(t *testing.T) {
	// 2x4: rows fewer than columns.
	cost := [][]float64{
		{9, 2, 7, 8},
		{6, 4, 3, 7},
	}
	got := Hungarian(cost)
	if c := assignCost(cost, got); c != 5 { // 2 + 3
		t.Fatalf("cost = %v (assign %v), want 5", c, got)
	}
	// 4x2: more rows than columns; two rows must stay unassigned.
	costT := [][]float64{
		{9, 6},
		{2, 4},
		{7, 3},
		{8, 7},
	}
	gotT := Hungarian(costT)
	assigned := 0
	for _, j := range gotT {
		if j >= 0 {
			assigned++
		}
	}
	if assigned != 2 {
		t.Fatalf("assigned %d rows, want 2 (assign %v)", assigned, gotT)
	}
	if c := assignCost(costT, gotT); c != 5 { // rows 1->0 (2) and 2->1 (3)
		t.Fatalf("cost = %v (assign %v), want 5", c, gotT)
	}
}

func TestHungarianEmptyAndSingle(t *testing.T) {
	if got := Hungarian(nil); got != nil {
		t.Error("nil input should give nil")
	}
	got := Hungarian([][]float64{{3}})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("1x1 = %v", got)
	}
}

// Property: Hungarian matches brute force on small random matrices.
func TestQuickHungarianOptimal(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 1
		m := n + int(mRaw%3) // m >= n
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = float64(r.Intn(50))
			}
		}
		got := assignCost(cost, Hungarian(cost))
		want := bruteForceMin(cost)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: assignment is injective (no column used twice).
func TestQuickHungarianInjective(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 1
		m := int(mRaw%8) + 1
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = r.Float64() * 10
			}
		}
		assign := Hungarian(cost)
		used := map[int]bool{}
		for _, j := range assign {
			if j < 0 {
				continue
			}
			if used[j] {
				return false
			}
			used[j] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"CytoPosition", []string{"cyto", "position"}},
		{"locus_id", []string{"locus", "id"}},
		{"GN", []string{"gn"}},
		{"GeneSymbol", []string{"gene", "symbol"}},
		{"GOTerm", []string{"go", "term"}},
		{"MimNumber", []string{"mim", "number"}},
		{"a-b c.d", []string{"a", "b", "c", "d"}},
		{"Symbol2", []string{"symbol", "2"}},
	}
	for _, c := range cases {
		got := tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("tokenize(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestNameSimilarityOrdering(t *testing.T) {
	// Domain pairs must score above unrelated pairs.
	pairs := []struct{ a, b string }{
		{"Symbol", "GeneSymbol"},
		{"Position", "CytoPosition"},
		{"LocusID", "Locus"},
		{"Organism", "OS"},
		{"Description", "DE"},
		{"MimNumber", "NO"},
	}
	for _, p := range pairs {
		s := NameSimilarity(p.a, p.b)
		u := NameSimilarity(p.a, "Evidence")
		if s <= u {
			t.Errorf("sim(%q,%q)=%.3f <= sim(%q,Evidence)=%.3f", p.a, p.b, s, p.a, u)
		}
		if s < 0 || s > 1 {
			t.Errorf("sim out of range: %v", s)
		}
	}
	if NameSimilarity("Symbol", "symbol") != 1 {
		t.Error("case-insensitive identity should be 1")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "xy", 2},
		{"kitten", "sitting", 3},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeCompatibility(t *testing.T) {
	if TypeCompatibility(oem.KindInt, oem.KindInt) != 1 {
		t.Error("identical kinds should be 1")
	}
	if TypeCompatibility(oem.KindInt, oem.KindComplex) >= 0.5 {
		t.Error("complex vs atomic should be near zero")
	}
	if TypeCompatibility(oem.KindString, oem.KindURL) <= TypeCompatibility(oem.KindBool, oem.KindString) {
		t.Error("string/url should beat bool/string")
	}
	// Symmetry.
	if TypeCompatibility(oem.KindInt, oem.KindString) != TypeCompatibility(oem.KindString, oem.KindInt) {
		t.Error("not symmetric")
	}
}

func locusLinkSchema() wrapper.Schema {
	return wrapper.Schema{
		Source: "LocusLink", Entity: "Locus",
		Labels: []wrapper.LabelInfo{
			{Name: "LocusID", Kind: oem.KindInt},
			{Name: "Organism", Kind: oem.KindString},
			{Name: "Symbol", Kind: oem.KindString},
			{Name: "Description", Kind: oem.KindString, Optional: true},
			{Name: "Position", Kind: oem.KindString},
			{Name: "Links", Kind: oem.KindComplex, Optional: true},
		},
	}
}

func omimSchema() wrapper.Schema {
	return wrapper.Schema{
		Source: "OMIM", Entity: "Entry",
		Labels: []wrapper.LabelInfo{
			{Name: "MimNumber", Kind: oem.KindInt},
			{Name: "Title", Kind: oem.KindString},
			{Name: "GeneSymbol", Kind: oem.KindString, Repeatable: true},
			{Name: "Locus", Kind: oem.KindString, Repeatable: true, Optional: true},
			{Name: "CytoPosition", Kind: oem.KindString, Optional: true},
			{Name: "Inheritance", Kind: oem.KindString, Optional: true},
			{Name: "WebLink", Kind: oem.KindURL},
		},
	}
}

func TestMDSMOnDomainSchemas(t *testing.T) {
	res := Match(omimSchema(), locusLinkSchema(), Options{})
	want := map[string]string{
		"GeneSymbol":   "Symbol",
		"Locus":        "LocusID",
		"CytoPosition": "Position",
		"Title":        "Description",
	}
	pairs := map[string]*Correspondence{}
	for i := range res.Pairs {
		pairs[res.Pairs[i].A] = &res.Pairs[i]
	}
	for a, b := range want {
		p := pairs[a]
		if p == nil {
			t.Errorf("no correspondence for %s (result:\n%s)", a, res.String())
			continue
		}
		if p.B != b {
			t.Errorf("%s matched %s, want %s", a, p.B, b)
		}
	}
	// Inheritance has no counterpart; it must stay unmatched.
	for _, p := range res.Pairs {
		if p.A == "Inheritance" {
			t.Errorf("Inheritance spuriously matched %s (%.3f)", p.B, p.Score)
		}
	}
}

func TestHungarianBeatsGreedyOrTies(t *testing.T) {
	// On every schema pair the Hungarian total score must be >= greedy's.
	a, b := omimSchema(), locusLinkSchema()
	h := Match(a, b, Options{})
	g := MatchGreedy(a, b, Options{})
	s := MatchStable(a, b, Options{})
	if h.TotalScore() < g.TotalScore()-1e-9 {
		t.Errorf("hungarian %.3f < greedy %.3f", h.TotalScore(), g.TotalScore())
	}
	if h.TotalScore() < s.TotalScore()-1e-9 {
		t.Errorf("hungarian %.3f < stable %.3f", h.TotalScore(), s.TotalScore())
	}
}

// Property: on random similarity matrices, the Hungarian assignment's total
// similarity is >= greedy's and >= stable's.
func TestQuickHungarianDominates(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%6) + 1
		m := int(mRaw%6) + 1
		sim := make([][]float64, n)
		for i := range sim {
			sim[i] = make([]float64, m)
			for j := range sim[i] {
				sim[i][j] = r.Float64()
			}
		}
		score := func(assign []int) float64 {
			t := 0.0
			for i, j := range assign {
				if j >= 0 {
					t += sim[i][j]
				}
			}
			return t
		}
		h := score(MaximizeAssignment(sim))
		g := score(greedyAssign(sim))
		s := score(stableAssign(sim))
		return h >= g-1e-9 && h >= s-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvaluate(t *testing.T) {
	r := Result{Pairs: []Correspondence{
		{A: "GeneSymbol", B: "Symbol"},
		{A: "Locus", B: "Position"}, // wrong
	}}
	truth := map[string]string{
		"GeneSymbol":   "Symbol",
		"Locus":        "LocusID",
		"CytoPosition": "Position",
	}
	p, rec, f1 := Evaluate(r, truth)
	if math.Abs(p-0.5) > 1e-9 || math.Abs(rec-1.0/3) > 1e-9 {
		t.Errorf("p=%v r=%v", p, rec)
	}
	if f1 <= 0 || f1 >= 1 {
		t.Errorf("f1=%v", f1)
	}
	// Perfect empty case.
	p, rec, f1 = Evaluate(Result{}, map[string]string{})
	if p != 1 || rec != 1 || f1 != 1 {
		t.Error("empty-vs-empty should be perfect")
	}
}

func TestThresholdFiltering(t *testing.T) {
	a := wrapper.Schema{Source: "A", Labels: []wrapper.LabelInfo{
		{Name: "zzz", Kind: oem.KindString},
	}}
	b := wrapper.Schema{Source: "B", Labels: []wrapper.LabelInfo{
		{Name: "qqq", Kind: oem.KindInt},
	}}
	res := Match(a, b, Options{Threshold: 0.99})
	if len(res.Pairs) != 0 {
		t.Errorf("unrelated labels matched: %+v", res.Pairs)
	}
	if len(res.UnmatchedA) != 1 || len(res.UnmatchedB) != 1 {
		t.Errorf("unmatched lists wrong: %+v", res)
	}
}

func TestMatchEmptySchemas(t *testing.T) {
	res := Match(wrapper.Schema{Source: "A"}, wrapper.Schema{Source: "B"}, Options{})
	if len(res.Pairs) != 0 {
		t.Error("empty schemas should not match anything")
	}
}

func BenchmarkHungarian32(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	n := 32
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = r.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hungarian(cost)
	}
}
