// Package datagen generates the synthetic annotation corpus that stands in
// for the paper's live LocusLink / GeneOntology / OMIM databases.
//
// The substitution is recorded in DESIGN.md: the 2004-era public sources are
// not redistributable (LocusLink was retired weeks after the paper
// appeared), so we generate data with the same *shape* — cross-referenced
// gene loci, a GO term DAG with gene associations, and OMIM-style disorder
// records — plus, crucially, the heterogeneities ANNODA's machinery exists
// to resolve: per-source value encodings, missing fields, aliases and
// outright conflicts. Generation is deterministic in the seed.
package datagen

import (
	"fmt"
	"sort"
)

// Config sizes and shapes a corpus.
type Config struct {
	Seed     uint64
	Genes    int
	GoTerms  int
	Diseases int
	// ConflictRate is the probability that a gene's OMIM-side values
	// contradict its LocusLink-side values (position encoding, stale
	// symbol). These are the conflicts reconciliation must resolve.
	ConflictRate float64
	// MissingRate is the probability that an optional field is absent in a
	// given source — the "some data is missing" irregularity Lorel is
	// designed around.
	MissingRate float64
}

// DefaultConfig is the corpus used by the examples and experiments.
func DefaultConfig() Config {
	return Config{
		Seed:         20050405, // ICDE'05 workshops week
		Genes:        1000,
		GoTerms:      300,
		Diseases:     400,
		ConflictRate: 0.15,
		MissingRate:  0.10,
	}
}

// Gene is the ground-truth record for one locus. Sources derive their own
// (possibly degraded) views of it.
type Gene struct {
	LocusID     int
	Symbol      string
	Aliases     []string
	Organism    string // canonical binomial, e.g. "Homo sapiens"
	Description string
	Position    string // cytogenetic, e.g. "19q13.32"

	// Cross-references (ground truth for link navigation).
	GoTerms  []string // GO ids annotated to this gene
	Diseases []int    // MIM numbers associated with this gene

	// Per-source degradations, precomputed so every consumer sees the same
	// corpus.
	OMIMSymbol    string // symbol as OMIM spells it (may be a stale alias)
	OMIMPosition  string // position as OMIM encodes it (may differ in format)
	GOOrganism    string // organism as the GO associations file spells it
	LLMissingDesc bool   // LocusLink lacks the description
	OMIMMissing   bool   // OMIM has no record content for this gene beyond links
	Conflicting   bool   // true when OMIM values genuinely contradict LocusLink
}

// Term is one GO term.
type Term struct {
	ID        string // "GO:0000123"
	Name      string
	Namespace string // molecular_function | biological_process | cellular_component
	Def       string
	Parents   []string // is_a parents (earlier terms, same namespace: a DAG)
}

// Disease is one OMIM-style record.
type Disease struct {
	MIM         int
	Title       string
	GeneSymbols []string // symbols as OMIM spells them
	Loci        []int    // LocusIDs (ground-truth links)
	Position    string
	Inheritance string
}

// Corpus is a complete generated dataset.
type Corpus struct {
	Config   Config
	Genes    []Gene
	Terms    []Term
	Diseases []Disease

	geneByID map[int]*Gene
	mimByID  map[int]*Disease
}

var namespaces = []string{"molecular_function", "biological_process", "cellular_component"}

var organisms = []struct {
	Binomial string
	Common   string // the GO association file's spelling
	Abbrev   string
}{
	{"Homo sapiens", "human", "H. sapiens"},
	{"Mus musculus", "mouse", "M. musculus"},
	{"Rattus norvegicus", "rat", "R. norvegicus"},
	{"Danio rerio", "zebrafish", "D. rerio"},
}

var inheritances = []string{
	"autosomal dominant", "autosomal recessive", "X-linked", "mitochondrial", "somatic",
}

var descWords = []string{
	"viral", "oncogene", "homolog", "receptor", "kinase", "binding", "factor",
	"transcription", "membrane", "protein", "growth", "signal", "transducer",
	"regulator", "channel", "transporter", "repair", "cycle", "apoptosis",
	"polymerase", "ligase", "helicase", "domain", "containing", "associated",
	"zinc", "finger", "homeobox", "nuclear", "mitochondrial", "ribosomal",
}

var goNouns = []string{
	"activity", "binding", "process", "regulation", "transport", "assembly",
	"biogenesis", "organization", "response", "signaling", "catabolism",
	"biosynthesis", "localization", "maintenance", "repair", "replication",
}

var goAdjs = []string{
	"transcription factor", "protein", "DNA", "RNA", "ATP", "ion", "lipid",
	"nucleotide", "chromatin", "membrane", "cytoskeleton", "receptor",
	"oxidoreductase", "transferase", "hydrolase", "kinase", "phosphatase",
}

var diseaseNouns = []string{
	"SYNDROME", "CARCINOMA", "DYSTROPHY", "ANEMIA", "DEFICIENCY", "ATAXIA",
	"NEUROPATHY", "CARDIOMYOPATHY", "DYSPLASIA", "SCLEROSIS", "RETINOPATHY",
}

// Generate builds a corpus from the config.
func Generate(cfg Config) *Corpus {
	if cfg.Genes <= 0 || cfg.GoTerms <= 0 || cfg.Diseases <= 0 {
		d := DefaultConfig()
		if cfg.Genes <= 0 {
			cfg.Genes = d.Genes
		}
		if cfg.GoTerms <= 0 {
			cfg.GoTerms = d.GoTerms
		}
		if cfg.Diseases <= 0 {
			cfg.Diseases = d.Diseases
		}
	}
	root := NewRNG(cfg.Seed)
	c := &Corpus{
		Config:   cfg,
		geneByID: make(map[int]*Gene),
		mimByID:  make(map[int]*Disease),
	}
	c.genTerms(root.Fork(), cfg)
	c.genGenes(root.Fork(), cfg)
	c.genDiseases(root.Fork(), cfg)
	c.linkGenes(root.Fork(), cfg)
	for i := range c.Genes {
		c.geneByID[c.Genes[i].LocusID] = &c.Genes[i]
	}
	for i := range c.Diseases {
		c.mimByID[c.Diseases[i].MIM] = &c.Diseases[i]
	}
	return c
}

func (c *Corpus) genTerms(r *RNG, cfg Config) {
	// Terms are generated namespace-striped; parents are chosen among
	// earlier terms of the same namespace, which guarantees a DAG with the
	// three namespace roots.
	perNS := make(map[string][]int) // namespace -> indexes of terms so far
	for i := 0; i < cfg.GoTerms; i++ {
		ns := namespaces[i%len(namespaces)]
		t := Term{
			ID:        fmt.Sprintf("GO:%07d", 1000+i),
			Namespace: ns,
			Name:      Pick(r, goAdjs) + " " + Pick(r, goNouns),
			Def:       "The " + Pick(r, goNouns) + " of " + Pick(r, goAdjs) + " entities.",
		}
		prior := perNS[ns]
		if len(prior) > 0 {
			nParents := 1
			if r.Bool(0.25) && len(prior) > 1 {
				nParents = 2
			}
			seen := map[int]bool{}
			for p := 0; p < nParents; p++ {
				pi := prior[r.Intn(len(prior))]
				if seen[pi] {
					continue
				}
				seen[pi] = true
				t.Parents = append(t.Parents, c.Terms[pi].ID)
			}
			sort.Strings(t.Parents)
		}
		perNS[ns] = append(perNS[ns], i)
		c.Terms = append(c.Terms, t)
	}
}

func symbolFor(r *RNG, i int) string {
	const letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	n := 3 + r.Intn(3)
	buf := make([]byte, n)
	for k := 0; k < n; k++ {
		buf[k] = letters[r.Intn(26)]
	}
	s := string(buf)
	if r.Bool(0.5) {
		s += fmt.Sprintf("%d", 1+r.Intn(9))
	}
	// Guarantee uniqueness by suffixing the index in base-26-ish form; real
	// symbols are unique too, and downstream joins rely on it.
	return fmt.Sprintf("%s%02d", s, i%100)
}

func positionFor(r *RNG) string {
	chrom := 1 + r.Intn(22)
	arm := "q"
	if r.Bool(0.4) {
		arm = "p"
	}
	band := 11 + r.Intn(25)
	if r.Bool(0.5) {
		return fmt.Sprintf("%d%s%d.%d", chrom, arm, band, 1+r.Intn(3))
	}
	return fmt.Sprintf("%d%s%d", chrom, arm, band)
}

// mutateBand changes the band number of a cytogenetic position so the
// result is a genuinely different location: "19q13.32" -> "19q14.32".
func mutateBand(r *RNG, pos string) string {
	// Find the band digits after the arm letter.
	for i := 0; i < len(pos); i++ {
		if pos[i] == 'p' || pos[i] == 'q' {
			j := i + 1
			for j < len(pos) && pos[j] >= '0' && pos[j] <= '9' {
				j++
			}
			if j > i+1 {
				band := pos[i+1 : j]
				d := int(band[len(band)-1]-'0') + 1 + r.Intn(3)
				return pos[:j-1] + string(rune('0'+(d%10))) + pos[j:]
			}
		}
	}
	return pos + ".9"
}

func descriptionFor(r *RNG) string {
	n := 3 + r.Intn(4)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += Pick(r, descWords)
	}
	return out
}

func (c *Corpus) genGenes(r *RNG, cfg Config) {
	usedSymbols := map[string]bool{}
	for i := 0; i < cfg.Genes; i++ {
		sym := symbolFor(r, i)
		for usedSymbols[sym] {
			sym = symbolFor(r, i)
		}
		usedSymbols[sym] = true
		org := organisms[r.Intn(len(organisms))]
		g := Gene{
			LocusID:     1000 + i*3 + r.Intn(2), // sparse, increasing ids
			Symbol:      sym,
			Organism:    org.Binomial,
			Description: descriptionFor(r),
			Position:    positionFor(r),
		}
		// Aliases: older literature symbols.
		for a := 0; a < r.Intn(3); a++ {
			g.Aliases = append(g.Aliases, fmt.Sprintf("%s-%d", sym, a+1))
		}
		// Per-source encodings.
		g.GOOrganism = org.Common
		g.OMIMSymbol = g.Symbol
		g.OMIMPosition = g.Position
		g.LLMissingDesc = r.Bool(cfg.MissingRate)
		// Format-only heterogeneity: OMIM often writes positions in "chr"
		// form. A transformation call normalizes this away — it is NOT a
		// conflict.
		if r.Bool(0.3) {
			g.OMIMPosition = "chr" + g.OMIMPosition
		}
		if r.Bool(cfg.ConflictRate) {
			g.Conflicting = true
			// Genuine conflicts survive normalization: OMIM reports a
			// different cytogenetic band, and half the time a stale gene
			// name from older nomenclature.
			g.OMIMPosition = "chr" + mutateBand(r, g.Position)
			if r.Bool(0.5) {
				g.OMIMSymbol = "O" + g.Symbol
			}
		}
		c.Genes = append(c.Genes, g)
	}
	// LocusIDs must be unique; fix any collisions deterministically.
	seen := map[int]bool{}
	for i := range c.Genes {
		for seen[c.Genes[i].LocusID] {
			c.Genes[i].LocusID++
		}
		seen[c.Genes[i].LocusID] = true
	}
}

func (c *Corpus) genDiseases(r *RNG, cfg Config) {
	for i := 0; i < cfg.Diseases; i++ {
		d := Disease{
			MIM:         100000 + i*7 + r.Intn(5),
			Title:       Pick(r, goAdjs) + " " + Pick(r, diseaseNouns),
			Position:    positionFor(r),
			Inheritance: Pick(r, inheritances),
		}
		c.Diseases = append(c.Diseases, d)
	}
	seen := map[int]bool{}
	for i := range c.Diseases {
		for seen[c.Diseases[i].MIM] {
			c.Diseases[i].MIM++
		}
		seen[c.Diseases[i].MIM] = true
	}
}

func (c *Corpus) linkGenes(r *RNG, cfg Config) {
	// GO annotations: most genes get 1-5 terms; ~15% get none (they will
	// not appear in the Figure 5(b) answer).
	for i := range c.Genes {
		g := &c.Genes[i]
		if r.Bool(0.15) {
			continue
		}
		n := 1 + r.Intn(5)
		seen := map[string]bool{}
		for k := 0; k < n; k++ {
			t := c.Terms[r.Intn(len(c.Terms))].ID
			if !seen[t] {
				seen[t] = true
				g.GoTerms = append(g.GoTerms, t)
			}
		}
		sort.Strings(g.GoTerms)
	}
	// Disease links: ~40% of genes have at least one OMIM association.
	for i := range c.Genes {
		g := &c.Genes[i]
		if !r.Bool(0.4) {
			continue
		}
		n := 1 + r.Intn(2)
		seen := map[int]bool{}
		for k := 0; k < n; k++ {
			di := r.Intn(len(c.Diseases))
			d := &c.Diseases[di]
			if seen[d.MIM] {
				continue
			}
			seen[d.MIM] = true
			g.Diseases = append(g.Diseases, d.MIM)
			d.GeneSymbols = append(d.GeneSymbols, g.OMIMSymbol)
			d.Loci = append(d.Loci, g.LocusID)
		}
		sort.Ints(g.Diseases)
	}
	// A handful of OMIM records have no content for a linked gene at all —
	// the "similar concepts, heterogeneous sets" irregularity.
	for i := range c.Genes {
		if r.Bool(0.03) {
			c.Genes[i].OMIMMissing = true
		}
	}
}

// GeneByID returns the ground-truth gene for a LocusID, or nil.
func (c *Corpus) GeneByID(id int) *Gene { return c.geneByID[id] }

// DiseaseByMIM returns the OMIM record, or nil.
func (c *Corpus) DiseaseByMIM(mim int) *Disease { return c.mimByID[mim] }

// GenesWithGoButNotOMIM returns the LocusIDs of genes annotated with at
// least one GO term but associated with no OMIM disease — the ground truth
// for the paper's Figure 5(b) query.
func (c *Corpus) GenesWithGoButNotOMIM() []int {
	var out []int
	for i := range c.Genes {
		g := &c.Genes[i]
		if len(g.GoTerms) > 0 && len(g.Diseases) == 0 {
			out = append(out, g.LocusID)
		}
	}
	sort.Ints(out)
	return out
}

// ConflictingGenes returns the LocusIDs whose OMIM view contradicts the
// LocusLink view — the reconciliation workload.
func (c *Corpus) ConflictingGenes() []int {
	var out []int
	for i := range c.Genes {
		if c.Genes[i].Conflicting {
			out = append(out, c.Genes[i].LocusID)
		}
	}
	sort.Ints(out)
	return out
}
