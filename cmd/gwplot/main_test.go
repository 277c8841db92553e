package main

import (
	"bytes"
	"strings"
	"testing"

	"ghostwriter/internal/harness"
)

// TestRenderPartialReport: the report of `gwsweep -exp fig12 -json` draws
// Fig. 12's two charts and its sweep cost, and no empty chart for a section
// it does not carry.
func TestRenderPartialReport(t *testing.T) {
	rep := &harness.Report{
		Jobs: 2,
		Fig12: []harness.Fig12Point{
			{Timeout: 128, GIFracPct: 7.5, ErrorPct: 1.25},
			{Timeout: 512, GIFracPct: 15, ErrorPct: 2.5},
			{Timeout: 1024, GIFracPct: 18, ErrorPct: 3},
		},
		Timing: &harness.TimingReport{
			WallMS:    30,
			Simulated: 3,
			Cells: []harness.CellTiming{
				{Label: "fig12 timeout=128", MS: 10},
				{Label: "fig12 timeout=512", MS: 11},
				{Label: "fig12 timeout=1024", MS: 9},
			},
		},
	}
	var buf bytes.Buffer
	render(&buf, rep)
	out := buf.String()
	var titles []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Fig. ") {
			titles = append(titles, line)
		}
	}
	want := []string{
		"Fig. 12a — GI utilization vs timeout (bad_dot_product, d=4)",
		"Fig. 12b — output error vs timeout",
	}
	if strings.Join(titles, "\n") != strings.Join(want, "\n") {
		t.Errorf("chart titles %q, want %q", titles, want)
	}
	for _, s := range []string{"timeout 1024", "Sweep cost — 30 ms wall clock on 2 workers (3 cells simulated, 0 from cache)",
		"Slowest cells", "fig12 timeout=512"} {
		if !strings.Contains(out, s) {
			t.Errorf("output lacks %q:\n%s", s, out)
		}
	}
	if strings.HasPrefix(out, "\n") || strings.Contains(out, "\n\n\n") {
		t.Errorf("stray blank lines:\n%s", out)
	}
}
