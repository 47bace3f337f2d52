package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunBuiltinCountries(t *testing.T) {
	if err := run([]string{"-builtin", "countries", "-top", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.csv")
	csv := "object,x1,x2\nA,0.3,0.25\nB,0.25,0.55\nC,0.7,0.7\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-alpha", "+,+", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-alpha", "+,+", "-features", "-scores=false", path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no CSV
		{"-builtin", "nonsense"},       // unknown builtin
		{"missing.csv"},                // no alpha
		{"-alpha", "+,+", "/does/not"}, // unreadable file
		{"-alpha", "+,z", "whatever"},  // bad alpha
		{"-alpha", "+,+", "a", "b"},    // too many args
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunReportFlag(t *testing.T) {
	if err := run([]string{"-builtin", "journals", "-top", "3", "-report"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunHelp: -h and -help print the usage and are not an error, so the
// command exits 0 without ranking anything.
func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		if err := run([]string{arg}); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
	}
}
