package oem

import (
	"strconv"
	"strings"
)

// Compare compares two atomic objects under Lorel's coercion rules and
// reports (cmp, ok). cmp is -1, 0 or +1; ok is false when the values are
// incomparable even after coercion (in Lorel such comparisons are simply
// false, never errors — semi-structured data routinely holds "similar
// concepts represented using different types", which is exactly why the
// paper extends OEM with value types).
//
// Coercion rules, in priority order:
//
//  1. integer vs integer, real vs real, etc.: native comparison.
//  2. integer vs real: integer widens to real.
//  3. numeric vs string: the string is parsed as a number if possible;
//     otherwise incomparable.
//  4. bool vs string: "true"/"false" (case-insensitive) parse to bool.
//  5. url vs string: compared as strings.
//  6. gif vs anything, complex vs anything: incomparable.
func Compare(a, b *Object) (int, bool) {
	if a == nil || b == nil || !a.IsAtomic() || !b.IsAtomic() {
		return 0, false
	}
	switch {
	case a.Kind == KindGif || b.Kind == KindGif:
		if a.Kind == KindGif && b.Kind == KindGif {
			return strings.Compare(string(a.Raw), string(b.Raw)), true
		}
		return 0, false
	case a.Kind == KindBool || b.Kind == KindBool:
		ab, aok := coerceBool(a)
		bb, bok := coerceBool(b)
		if !aok || !bok {
			return 0, false
		}
		switch {
		case ab == bb:
			return 0, true
		case !ab:
			return -1, true
		default:
			return 1, true
		}
	case isNumeric(a) || isNumeric(b):
		af, aok := coerceReal(a)
		bf, bok := coerceReal(b)
		if !aok || !bok {
			// A numeric compared against something that does not parse as a
			// number is incomparable; Lorel makes such predicates false
			// rather than errors.
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	default: // string-ish vs string-ish
		as, aok := coerceString(a)
		bs, bok := coerceString(b)
		if !aok || !bok {
			return 0, false
		}
		return strings.Compare(as, bs), true
	}
}

func isNumeric(o *Object) bool { return o.Kind == KindInt || o.Kind == KindReal }

func coerceReal(o *Object) (float64, bool) {
	switch o.Kind {
	case KindInt:
		return float64(o.Int), true
	case KindReal:
		return o.Real, true
	case KindString, KindURL:
		f, err := strconv.ParseFloat(strings.TrimSpace(o.Str), 64)
		return f, err == nil
	case KindBool:
		if o.Bool {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func coerceBool(o *Object) (bool, bool) {
	switch o.Kind {
	case KindBool:
		return o.Bool, true
	case KindString, KindURL:
		switch strings.ToLower(strings.TrimSpace(o.Str)) {
		case "true":
			return true, true
		case "false":
			return false, true
		}
		return false, false
	case KindInt:
		return o.Int != 0, true
	case KindReal:
		return o.Real != 0, true
	}
	return false, false
}

func coerceString(o *Object) (string, bool) {
	switch o.Kind {
	case KindString, KindURL:
		return o.Str, true
	case KindInt:
		return strconv.FormatInt(o.Int, 10), true
	case KindReal:
		return strconv.FormatFloat(o.Real, 'g', -1, 64), true
	case KindBool:
		return strconv.FormatBool(o.Bool), true
	}
	return "", false
}

// Like reports whether the atomic object's string form matches an SQL-style
// LIKE pattern ('%' matches any run, '_' matches one rune), case-insensitive,
// per Lorel's "like" operator.
func Like(o *Object, pattern string) bool {
	if o == nil || !o.IsAtomic() {
		return false
	}
	s, ok := coerceString(o)
	if !ok {
		return false
	}
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Dynamic programming over runes; patterns are short so O(len(s)*len(p))
	// is fine.
	sr := []rune(s)
	pr := []rune(p)
	// prev[j] == true: sr[:i] matches pr[:j]
	prev := make([]bool, len(pr)+1)
	cur := make([]bool, len(pr)+1)
	prev[0] = true
	for j := 1; j <= len(pr); j++ {
		prev[j] = prev[j-1] && pr[j-1] == '%'
	}
	for i := 1; i <= len(sr); i++ {
		cur[0] = false
		for j := 1; j <= len(pr); j++ {
			switch pr[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && sr[i-1] == pr[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(pr)]
}
