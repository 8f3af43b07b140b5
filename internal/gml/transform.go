// Package gml builds ANNODA-GML, the global model (view) over the wrapped
// sources.
//
// "A global model (view), called ANNODA-GML is then constructed both from
// the local relevant models and from general knowledge of the domain"
// (paper §6). The domain knowledge lives in concepts.go (the unified
// concepts and the organism thesaurus); the per-source mappings are
// produced by the MDSM matcher (internal/match) plus the transformation
// calls in this file, which normalize value encodings ("LL1234" -> 1234,
// "chr19q13" -> "19q13", "human" -> "Homo sapiens", ...).
package gml

import (
	"fmt"
	"strconv"
	"strings"
)

// Transform names a value transformation applied when moving a local value
// into the global model — the "Transformation call" box in Figure 1.
// Transforms with a parameter encode it after a colon: "strip_prefix:LL".
type Transform string

// Built-in transforms.
const (
	TIdentity   Transform = "identity"
	TUpper      Transform = "upper"
	TIntParse   Transform = "int_parse"
	TOrganism   Transform = "organism_canonical"
	TXrefNumber Transform = "xref_number" // "LocusLink; 1234" -> 1234
	TStripChr   Transform = "strip_chr"   // "chr19q13.32" -> "19q13.32"
	TTrimParen  Transform = "trim_paren"  // "Homo sapiens (Human)" -> "Homo sapiens"
)

// StripPrefix returns the parameterized prefix-stripping transform
// ("LL1234" -> 1234 for StripPrefix("LL")).
func StripPrefix(p string) Transform { return Transform("strip_prefix:" + p) }

// organismCanonical maps every spelling variant the corpus uses to the
// canonical binomial. Unknown names pass through unchanged.
var organismCanonical = map[string]string{
	"human": "Homo sapiens", "h. sapiens": "Homo sapiens", "homo sapiens": "Homo sapiens",
	"mouse": "Mus musculus", "m. musculus": "Mus musculus", "mus musculus": "Mus musculus",
	"rat": "Rattus norvegicus", "r. norvegicus": "Rattus norvegicus", "rattus norvegicus": "Rattus norvegicus",
	"zebrafish": "Danio rerio", "d. rerio": "Danio rerio", "danio rerio": "Danio rerio",
}

// Apply runs a transform on an untyped value (int64, float64, string,
// bool). Transforms that do not apply to the value's type pass it through
// unchanged; genuinely malformed inputs return an error so translation
// problems surface instead of silently corrupting the global view.
func Apply(tr Transform, v any) (any, error) {
	s, isStr := v.(string)
	switch {
	case tr == TIdentity || tr == "":
		return v, nil
	case tr == TUpper:
		if isStr {
			return strings.ToUpper(s), nil
		}
		return v, nil
	case tr == TIntParse:
		switch x := v.(type) {
		case int64:
			return x, nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("gml: int_parse(%q): %v", x, err)
			}
			return n, nil
		case float64:
			return int64(x), nil
		}
		return v, nil
	case tr == TOrganism:
		if !isStr {
			return v, nil
		}
		key := strings.ToLower(strings.TrimSpace(s))
		// "Homo sapiens (Human)" normalizes via the paren-trimmed form.
		if i := strings.Index(key, "("); i > 0 {
			key = strings.TrimSpace(key[:i])
		}
		if c, ok := organismCanonical[key]; ok {
			return c, nil
		}
		return s, nil
	case tr == TXrefNumber:
		if !isStr {
			return v, nil
		}
		// Take the last ';'-separated field and parse the number in it.
		parts := strings.Split(s, ";")
		last := strings.TrimSpace(parts[len(parts)-1])
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("gml: xref_number(%q): no number", s)
		}
		return n, nil
	case tr == TStripChr:
		if isStr && strings.HasPrefix(strings.ToLower(s), "chr") {
			return s[3:], nil
		}
		return v, nil
	case tr == TTrimParen:
		if !isStr {
			return v, nil
		}
		if i := strings.Index(s, "("); i > 0 {
			return strings.TrimSpace(s[:i]), nil
		}
		return s, nil
	case strings.HasPrefix(string(tr), "strip_prefix:"):
		if !isStr {
			return v, nil
		}
		prefix := strings.TrimPrefix(string(tr), "strip_prefix:")
		rest := strings.TrimPrefix(s, prefix)
		if n, err := strconv.ParseInt(rest, 10, 64); err == nil {
			return n, nil
		}
		return rest, nil
	}
	return nil, fmt.Errorf("gml: unknown transform %q", tr)
}

// InferTransform guesses the transformation call for a correspondence from
// the global label's intent and sample local values — how a human curator
// would wire a new source in, automated.
func InferTransform(globalLabel string, globalIsInt bool, samples []string) Transform {
	gl := strings.ToLower(globalLabel)
	switch {
	case strings.Contains(gl, "organism"):
		return TOrganism
	case strings.Contains(gl, "position"):
		for _, s := range samples {
			if strings.HasPrefix(strings.ToLower(s), "chr") {
				return TStripChr
			}
		}
		return TIdentity
	case globalIsInt:
		allInt := true
		var prefix string
		prefixOK := len(samples) > 0
		xref := false
		for _, s := range samples {
			if _, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err != nil {
				allInt = false
			}
			if strings.Contains(s, ";") {
				xref = true
			}
			p := letterPrefix(s)
			if prefix == "" {
				prefix = p
			}
			if p == "" || p != prefix {
				prefixOK = false
			}
		}
		switch {
		case allInt || len(samples) == 0:
			return TIntParse
		case xref:
			return TXrefNumber
		case prefixOK && prefix != "":
			return StripPrefix(prefix)
		default:
			return TIntParse
		}
	}
	return TIdentity
}

func letterPrefix(s string) string {
	i := 0
	for i < len(s) && (s[i] >= 'A' && s[i] <= 'Z' || s[i] >= 'a' && s[i] <= 'z') {
		i++
	}
	if i == 0 || i == len(s) {
		return ""
	}
	// The remainder must be numeric for this to be an id prefix.
	if _, err := strconv.ParseInt(s[i:], 10, 64); err != nil {
		return ""
	}
	return s[:i]
}

// CanonicalSymbol normalizes a gene symbol for fusion keys: uppercase,
// trimmed, stale "-N" alias suffixes removed.
func CanonicalSymbol(s string) string {
	s = strings.ToUpper(strings.TrimSpace(s))
	if i := strings.LastIndex(s, "-"); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			s = s[:i]
		}
	}
	return s
}
