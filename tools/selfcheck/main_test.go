package main

import (
	"sort"
	"testing"
)

// TestR7Fixture: R7 fires on a package nothing imports and on one only
// a _test.go file imports, and on nothing else.
func TestR7Fixture(t *testing.T) {
	findings, err := run("testdata/r7")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.rule != "R7" {
			t.Errorf("unexpected %s finding: %s", f.rule, f.msg)
			continue
		}
		got = append(got, f.msg)
	}
	sort.Strings(got)
	want := []string{
		"package internal/orphan has no non-test importer; code only tests run belongs in _test.go files",
		"package internal/testonly has no non-test importer; code only tests run belongs in _test.go files",
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("R7 findings = %q, want %q", got, want)
	}
}

// TestR8Fixture: R8 fires on the certifier importing a package it
// certifies and on an internal/ package importing the certifier, and on
// nothing else: the certifier may import the IR, a command may import
// the certifier, and test files are exempt.
func TestR8Fixture(t *testing.T) {
	findings, err := run("testdata/r8")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		if f.rule != "R8" {
			t.Errorf("unexpected %s finding: %s", f.rule, f.msg)
			continue
		}
		got = append(got, f.msg)
	}
	sort.Strings(got)
	want := []string{
		"package internal/core imports the certifier; certification is a post-hoc call from the root API or a command",
		"the certifier imports internal/feas, whose results it certifies; re-derive what it checks instead",
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("R8 findings = %q, want %q", got, want)
	}
}

// TestRepoClean: the repository itself passes every rule.
func TestRepoClean(t *testing.T) {
	findings, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.rule, f.msg)
	}
}
