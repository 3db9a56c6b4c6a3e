package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runToString(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestRunDefaultPreset(t *testing.T) {
	out, err := runToString(t, "-k", "0.9", "-method", "exact", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PPM(k=0.90)", "10 routers", "27 links", "132 traffics", "devices:", "coverage:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("exact MIP solves take tens of seconds")
	}
	for _, m := range []string{"greedy-load", "greedy-gain", "flow", "ilp", "exact"} {
		out, err := runToString(t, "-k", "0.85", "-method", m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !strings.Contains(out, "devices:") {
			t.Errorf("%s: no device count:\n%s", m, out)
		}
	}
}

func TestRunBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("exact MIP solves take tens of seconds")
	}
	// A generous budget succeeds; budget 1 for 95% coverage fails.
	if _, err := runToString(t, "-k", "0.95", "-method", "ilp", "-budget", "27"); err != nil {
		t.Fatal(err)
	}
	if _, err := runToString(t, "-k", "0.95", "-method", "ilp", "-budget", "1"); err == nil {
		t.Fatal("budget 1 should be infeasible at 95%")
	}
}

func TestRunErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad method": {"-method", "frobnicate"},
		"bad preset": {"-preset", "paper9000"},
		"bad flag":   {"-nonsense"},
		"bad map":    {"-map", "/does/not/exist"},
	} {
		if _, err := runToString(t, args...); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestRunFromMapFile(t *testing.T) {
	// Generate a map with popgen-equivalent code and load it back.
	dir := t.TempDir()
	path := filepath.Join(dir, "pop.map")
	content := `node 0 bb0 backbone
node 1 bb1 backbone
node 2 ar0 access
node 3 c0 virtual
node 4 c1 virtual
link 0 1 9953
link 1 2 2488
link 3 0 622
link 4 2 622
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runToString(t, "-map", path, "-k", "1", "-method", "exact")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 routers") {
		t.Errorf("map not loaded:\n%s", out)
	}
}

func TestRunScenarioFamily(t *testing.T) {
	out, err := runToString(t, "-family", "metro", "-size", "12", "-seed", "3", "-k", "0.9", "-method", "greedy-gain")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PPM(k=0.90)", "12 routers", "devices:", "coverage:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownFamilyErrors(t *testing.T) {
	if _, err := runToString(t, "-family", "no-such", "-size", "10"); err == nil {
		t.Fatal("want error for unknown family")
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := runToString(t, "-version")
	if err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(out, "passiveplace ") {
		t.Fatalf("version output = %q", out)
	}
}
