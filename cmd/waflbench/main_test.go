package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"wafl/harness"
)

// TestRegistryNames checks what the front end relies on: every entry is
// runnable under a unique, non-reserved name, and "all" is exactly the
// entries that are not gates.
func TestRegistryNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range harness.Experiments {
		lower := strings.ToLower(e.Name)
		if e.Name == "" || e.Name != lower || e.Name == "all" || e.Run == nil {
			t.Errorf("bad registry entry %q (lower-case non-reserved name and a Run required)", e.Name)
		}
		if seen[lower] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		seen[lower] = true
		if selected("all", e.Name, e.Gate) == e.Gate {
			t.Errorf("%q: gate=%v but selected by all=%v", e.Name, e.Gate, !e.Gate)
		}
		if !selected(strings.ToUpper(e.Name), e.Name, e.Gate) {
			t.Errorf("%q is not selected by its own name in upper case", e.Name)
		}
	}
}

// TestUnknownNameFails pins the fix for `-exp <typo>` running nothing and
// exiting 0: a name outside the registry selects nothing, which main turns
// into exit 2.
func TestUnknownNameFails(t *testing.T) {
	for _, sel := range []string{"nosuch", "", "fig", "fig44", "ALL", "inspect", "crashcheck"} {
		if known(sel) {
			t.Errorf("known(%q) = true", sel)
		}
	}
	if !known("all") || !known("fig4") {
		t.Error("known rejects a registry name")
	}
}

// TestCitedNamesResolve checks that every `-exp X` the docs, the Makefile
// and the CI workflow cite is in the registry.
func TestCitedNamesResolve(t *testing.T) {
	cite := regexp.MustCompile(`-exp[ =]([A-Za-z0-9_]+)`)
	for _, path := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(data), -1) {
			if !known(m[1]) {
				t.Errorf("%s cites -exp %s, which is not in the registry", path, m[1])
			}
		}
		if path != "Makefile" {
			continue
		}
		// The gate stages run `-exp $@`, so their target names are cited too.
		gates := regexp.MustCompile(`(?m)^GATES = (.*)$`).FindStringSubmatch(string(data))
		if gates == nil {
			t.Fatal("Makefile has no GATES list")
		}
		for _, g := range strings.Fields(gates[1]) {
			if !known(g) {
				t.Errorf("Makefile gate %s is not in the registry", g)
			}
		}
	}
}
