// Package jsonstr appends text as a JSON string literal, byte for byte what
// encoding/json writes for a Go string: the HTML-sensitive <, > and & as
// \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029, each
// byte of invalid UTF-8 as \ufffd. It exists so that a large text can be
// quoted straight into a response body, without json.Marshal's reflection,
// its intermediate buffer and the copy out of it.
package jsonstr

import "unicode/utf8"

const hex = "0123456789abcdef"

// utf8Lead marks a byte that starts a multi-byte sequence, which is copied
// unless it is invalid or one of the two line separators.
const utf8Lead = 1

// escape classifies each byte: 0 copies it, utf8Lead starts a multi-byte
// sequence, 'u' writes \u00XX, and any other value c writes \c.
var escape = func() (t [256]byte) {
	for b := 0; b < 0x20; b++ {
		t[b] = 'u'
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	t['"'], t['\\'] = '"', '\\'
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = utf8Lead
	}
	return t
}()

// Append appends s to dst as a quoted JSON string and returns the extended
// slice. Runs of bytes that need no escape are copied whole.
func Append(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := escape[s[i]]
		if c == 0 {
			i++
			continue
		}
		if c == utf8Lead {
			r, size := utf8.DecodeRune(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		dst = append(dst, s[start:i]...)
		if c == 'u' {
			dst = append(dst, '\\', 'u', '0', '0', hex[s[i]>>4], hex[s[i]&0xF])
		} else {
			dst = append(dst, '\\', c)
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
