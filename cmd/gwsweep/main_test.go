package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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

// sweep runs gwsweep on args and returns its exit code and output.
func sweep(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := realMain(args, &out, &errs); code != 0 {
		t.Fatalf("gwsweep %v: exit %d, stderr %q", args, code, errs.String())
	}
	return out.String(), errs.String()
}

// readReport decodes the JSON report at path.
func readReport(t *testing.T, path string) *harness.Report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep harness.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestJSONFollowsExp: -json writes the report of the experiment -exp ran
// and nothing else, with timing that counts that experiment's cells, and
// leaves stdout exactly as it is without -json.
func TestJSONFollowsExp(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-threads", "4", "-nocache", "-q"}

	tab1 := filepath.Join(dir, "tab1.json")
	sweep(t, append(base, "-exp", "tab1", "-json", tab1)...)
	rep := readReport(t, tab1)
	if rep.Fig1 != nil || rep.Fig2 != nil || rep.Suite != nil || rep.Fig12 != nil || rep.Protocols != nil ||
		rep.Topologies != nil || rep.Extensions != nil || rep.Trend != nil {
		t.Errorf("tab1 report carries a data section: %+v", rep)
	}
	if rep.Timing == nil || rep.Timing.Simulated != 0 || len(rep.Timing.Cells) != 0 {
		t.Errorf("tab1 report timing %+v, want no cells", rep.Timing)
	}

	fig12 := filepath.Join(dir, "fig12.json")
	plain, _ := sweep(t, append(base, "-exp", "fig12")...)
	withJSON, stderr := sweep(t, append(base, "-exp", "fig12", "-json", fig12)...)
	if withJSON != plain {
		t.Errorf("stdout with -json differs from stdout without:\n%s\nwant:\n%s", withJSON, plain)
	}
	if !strings.Contains(stderr, "wrote "+fig12) {
		t.Errorf("stderr %q does not name the report written", stderr)
	}
	rep = readReport(t, fig12)
	if len(rep.Fig12) != 3 || rep.Fig1 != nil || rep.Fig2 != nil || rep.Suite != nil || rep.Protocols != nil ||
		rep.Topologies != nil || rep.Extensions != nil || rep.Trend != nil {
		t.Errorf("fig12 report sections wrong: %+v", rep)
	}
	manifest, err := harness.Manifest("fig12", rep.Options)
	if err != nil {
		t.Fatal(err)
	}
	if tm := rep.Timing; tm == nil || tm.Simulated != uint64(len(manifest)) || len(tm.Cells) != len(manifest) {
		t.Errorf("fig12 report timing %+v, want the manifest's %d cells", tm, len(manifest))
	}
}
