package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is a hand-rolled checker for Prometheus text exposition
// format 0.0.4 — the contract behind GET /metrics. CI scrapes a live
// server and runs the scrape through ValidateExposition (via
// `annoda-lint -prom`), so a malformed exposition fails the build rather
// than a production scrape.

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed scrape.
type Exposition struct {
	Samples []Sample
	Types   map[string]string // family name -> counter|gauge|histogram|...
}

// Value returns the value of the unique sample with the given name and
// labels (matched as a subset of the sample's labels), and whether it
// was found.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ValidateExposition parses r as Prometheus text exposition format 0.0.4
// and checks structural invariants: metric and label name syntax, one
// TYPE per family declared before its samples, family sample groups not
// interleaved, parseable values, counters non-negative, and histogram
// families complete (cumulative non-decreasing buckets, an le="+Inf"
// bucket equal to _count). Returns the parsed exposition on success and
// a line-numbered error otherwise.
func ValidateExposition(r io.Reader) (*Exposition, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("exposition is empty")
	}
	if data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("exposition must end with a newline")
	}

	exp := &Exposition{Types: make(map[string]string)}
	typed := make(map[string]bool)  // family has samples already
	closed := make(map[string]bool) // family group ended
	current := ""                   // family whose group is open
	helped := make(map[string]bool) // HELP seen
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, cerr := parseComment(line)
			if cerr != nil {
				return nil, fmt.Errorf("line %d: %v", ln, cerr)
			}
			switch kind {
			case "HELP":
				if helped[name] {
					return nil, fmt.Errorf("line %d: second HELP for %s", ln, name)
				}
				helped[name] = true
			case "TYPE":
				if _, dup := exp.Types[name]; dup {
					return nil, fmt.Errorf("line %d: second TYPE for %s", ln, name)
				}
				if typed[name] {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", ln, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", ln, rest, name)
				}
				exp.Types[name] = rest
			}
			continue
		}
		s, serr := parseSample(line)
		if serr != nil {
			return nil, fmt.Errorf("line %d: %v", ln, serr)
		}
		fam := familyOf(s.Name, exp.Types)
		if fam != current {
			if current != "" {
				closed[current] = true
			}
			if closed[fam] {
				return nil, fmt.Errorf("line %d: samples for %s are not grouped together", ln, fam)
			}
			current = fam
		}
		typed[fam] = true
		if exp.Types[fam] == "counter" && s.Value < 0 {
			return nil, fmt.Errorf("line %d: counter %s has negative value %v", ln, s.Name, s.Value)
		}
		exp.Samples = append(exp.Samples, s)
	}

	if err := checkHistograms(exp); err != nil {
		return nil, err
	}
	return exp, nil
}

// familyOf maps a sample name onto its TYPE'd family: histogram and
// summary samples carry _bucket/_sum/_count suffixes.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

func parseComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	switch {
	case strings.HasPrefix(body, "HELP "):
		kind = "HELP"
		body = strings.TrimPrefix(body, "HELP ")
	case strings.HasPrefix(body, "TYPE "):
		kind = "TYPE"
		body = strings.TrimPrefix(body, "TYPE ")
	default:
		// Free-form comment: ignored.
		return "", "", "", nil
	}
	sp := strings.IndexByte(body, ' ')
	if sp < 0 {
		if kind == "HELP" {
			// HELP with empty docstring is legal.
			name = body
		} else {
			return "", "", "", fmt.Errorf("malformed %s comment", kind)
		}
	} else {
		name, rest = body[:sp], body[sp+1:]
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("%s names invalid metric %q", kind, name)
	}
	return kind, name, rest, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name at %q", line)
	}
	if i < len(line) && line[i] == '{' {
		labels, n, err := parseLabels(line[i:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		i += n
	}
	rest := strings.TrimLeft(line[i:], " \t")
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) > 2 {
		return s, fmt.Errorf("trailing garbage in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parseLabels consumes a {k="v",...} block starting at s[0]=='{' and
// returns the labels and the number of bytes consumed.
func parseLabels(s string) (map[string]string, int, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, i + 1, nil
		}
		start := i
		for i < len(s) && isLabelChar(s[i], i == start) {
			i++
		}
		name := s[start:i]
		if name == "" || !validLabelName(name) {
			return nil, 0, fmt.Errorf("invalid label name in %q", s)
		}
		if i >= len(s) || s[i] != '=' {
			return nil, 0, fmt.Errorf("missing '=' after label %s", name)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return nil, 0, fmt.Errorf("label %s value is not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, 0, fmt.Errorf("unterminated label value for %s", name)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, 0, fmt.Errorf("dangling escape in label %s", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, 0, fmt.Errorf("bad escape \\%c in label %s", s[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return nil, 0, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistograms verifies each TYPE'd histogram family: buckets are
// cumulative and non-decreasing in le, an le="+Inf" bucket exists, and it
// equals _count — per distinct non-le label set.
func checkHistograms(exp *Exposition) error {
	type hseries struct {
		les    []float64
		counts []float64
		inf    float64
		hasInf bool
		count  float64
		hasCnt bool
	}
	groups := make(map[string]*hseries)
	key := func(fam string, labels map[string]string) string {
		ks := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				ks = append(ks, k)
			}
		}
		sort.Strings(ks)
		var b strings.Builder
		b.WriteString(fam)
		for _, k := range ks {
			fmt.Fprintf(&b, "|%s=%q", k, labels[k])
		}
		return b.String()
	}
	for _, s := range exp.Samples {
		fam := familyOf(s.Name, exp.Types)
		if exp.Types[fam] != "histogram" {
			continue
		}
		g := groups[key(fam, s.Labels)]
		if g == nil {
			g = &hseries{}
			groups[key(fam, s.Labels)] = g
		}
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %s bucket without le label", fam)
			}
			if le == "+Inf" {
				g.inf, g.hasInf = s.Value, true
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %s has unparseable le=%q", fam, le)
				}
				g.les = append(g.les, f)
				g.counts = append(g.counts, s.Value)
			}
		case strings.HasSuffix(s.Name, "_count"):
			g.count, g.hasCnt = s.Value, true
		}
	}
	for k, g := range groups {
		if !g.hasInf {
			return fmt.Errorf("histogram series %s has no le=\"+Inf\" bucket", k)
		}
		if !g.hasCnt {
			return fmt.Errorf("histogram series %s has no _count", k)
		}
		if g.inf != g.count {
			return fmt.Errorf("histogram series %s: +Inf bucket %v != count %v", k, g.inf, g.count)
		}
		for i := 1; i < len(g.les); i++ {
			if g.les[i] <= g.les[i-1] {
				return fmt.Errorf("histogram series %s: le bounds not increasing", k)
			}
			if g.counts[i] < g.counts[i-1] {
				return fmt.Errorf("histogram series %s: bucket counts not cumulative", k)
			}
		}
		if n := len(g.counts); n > 0 && g.inf < g.counts[n-1] {
			return fmt.Errorf("histogram series %s: +Inf bucket below last finite bucket", k)
		}
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isLabelChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func isLabelChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
