package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the annoda-lint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "annoda-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module with the given files.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module lintcheck\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const dirtySrc = `package main

import "os"

func main() {
	os.Remove("/tmp/x")
}
`

// TestStandaloneMode runs the binary over a module with a finding.
func TestStandaloneMode(t *testing.T) {
	bin := buildLint(t)
	dir := writeModule(t, map[string]string{"main.go": dirtySrc})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone run passed a dropped os.Remove error:\n%s", out)
	}
	if !strings.Contains(string(out), "criticalerr: dropped error return of os.Remove") {
		t.Fatalf("diagnostic missing from standalone output:\n%s", out)
	}
}
