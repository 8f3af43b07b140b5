package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRunRejectsBadArgs: a corpus needs at least one gene, and a retired id
// is not registered; both are usage errors, raised before a corpus or a
// system is built.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-genes", "0"}, "-genes must be at least 1"},
		{[]string{"-exp", "E19", "-genes", "-5"}, "-genes must be at least 1"},
		{[]string{"-exp", "E13", "-genes", "10"}, "unknown experiment"},
	} {
		err := run(tc.args, io.Discard)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v = %v, want a usage error saying %q", tc.args, err, tc.want)
		}
	}
}
