package main

import (
	"runtime"
	"testing"
)

// TestParseShards pins the -shards grammar and its default: 1, the
// shared-wheel engine (the same contract as gwsweep's).
func TestParseShards(t *testing.T) {
	for in, want := range map[string]int{"1": 1, "4": 4, "auto": runtime.GOMAXPROCS(0)} {
		if got, err := parseShards(in); err != nil || got != want {
			t.Errorf("parseShards(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if got, err := parseShards(defaultShards); err != nil || got != 1 {
		t.Errorf("the -shards default %q parses to %d, %v; want 1", defaultShards, got, err)
	}
	for _, in := range []string{"0", "-1", "x", ""} {
		if got, err := parseShards(in); err == nil {
			t.Errorf("parseShards(%q) = %d, want an error", in, got)
		}
	}
}
