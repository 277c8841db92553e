package main

import (
	"testing"

	"ghostwriter/internal/harness"
)

// TestSplitURLs: the -remote flag accepts one URL or a comma-separated
// failover list, tolerating stray spaces and empty segments.
func TestSplitURLs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"http://a:8344", []string{"http://a:8344"}},
		{"http://a:8344,http://b:8344", []string{"http://a:8344", "http://b:8344"}},
		{" http://a:8344 , http://b:8344 ,", []string{"http://a:8344", "http://b:8344"}},
	}
	for _, c := range cases {
		got := splitURLs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitURLs(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitURLs(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

// TestSplitURLsFeedRemoteCache: the parsed list constructs a failover
// client whose preferred server is the first URL.
func TestSplitURLsFeedRemoteCache(t *testing.T) {
	rc, err := harness.NewRemoteCache(harness.RemoteConfig{
		URLs: splitURLs("http://primary:8344, http://standby:8344"),
	})
	if err != nil {
		t.Fatalf("client over split URLs: %v", err)
	}
	defer rc.Close()
	if rc.Degraded() {
		t.Error("fresh client reports degraded")
	}
}
