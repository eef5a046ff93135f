package main

import (
	"testing"

	"repro/internal/experiments"
)

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
