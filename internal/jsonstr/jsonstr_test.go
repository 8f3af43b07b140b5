package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestAppendMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"", "plain ASCII", `quote " and backslash \`, "<script>&amp;</script>",
		"\b\f\n\r\t\x00\x1f\x7f", "ünïcödé ☃ 𝄞", "line\u2028para\u2029end",
		"bad \xff utf8 \xe2\x80", "\xed\xa0\x80 surrogate", "trailing \xc3",
	}
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append([]byte("prefix"), []byte(s)); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("Append(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}
