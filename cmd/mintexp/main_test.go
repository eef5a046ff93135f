package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestCheckParity(t *testing.T) {
	same := "== fig11 ==\nrow 1\nrow 2\n"
	if bad := checkParity("fig11", []string{"inproc", "reopen", "remote"}, []string{same, same, same}); len(bad) != 0 {
		t.Fatalf("false positive: %v", bad)
	}
	diverged := "== fig11 ==\nrow 1\nrow 2 differs\n"
	bad := checkParity("fig11", []string{"inproc", "reopen", "remote"}, []string{same, same, diverged})
	if len(bad) != 1 {
		t.Fatalf("want one divergence, got %v", bad)
	}
	for _, want := range []string{"fig11", "inproc and remote", "line 3", `"row 2" != "row 2 differs"`} {
		if !strings.Contains(bad[0], want) {
			t.Fatalf("divergence report %q does not name %s", bad[0], want)
		}
	}
	// A render that stops early differs at the first line it lacks.
	bad = checkParity("fig15", []string{"inproc", "reopen"}, []string{"a\nb", "a"})
	if len(bad) != 1 || !strings.Contains(bad[0], `line 2: "b" != end of render`) {
		t.Fatalf("truncated render reported as %v", bad)
	}
}

func TestSelectTopos(t *testing.T) {
	kinds, err := selectTopos("inproc, remote")
	if err != nil || len(kinds) != 2 || kinds[0] != experiments.TopoInProc || kinds[1] != experiments.TopoRemote {
		t.Fatalf("selectTopos: %v %v", kinds, err)
	}
	if _, err := selectTopos("serial"); err == nil {
		t.Fatal("unknown topology must error")
	}
}

func TestSelectEntries(t *testing.T) {
	all, err := selectEntries("", false)
	if err != nil || len(all) != len(experiments.All()) {
		t.Fatalf("default selection: %d, %v", len(all), err)
	}
	light, err := selectEntries("", true)
	if err != nil || len(light) >= len(all) {
		t.Fatalf("-light must skip heavy entries: %d of %d", len(light), len(all))
	}
	subset, err := selectEntries("fig13,abl-hap", false)
	if err != nil || len(subset) != 2 {
		t.Fatalf("subset: %v %v", subset, err)
	}
	if _, err := selectEntries("nope", false); err == nil {
		t.Fatal("unknown ID must error")
	}
}
