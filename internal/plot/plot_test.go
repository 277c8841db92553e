package plot

import (
	"bytes"
	"strings"
	"testing"
)

func TestHBarBasics(t *testing.T) {
	var buf bytes.Buffer
	HBar(&buf, Config{Title: "demo", Width: 10, Unit: "%"}, []Bar{
		{"aa", 100},
		{"b", 50},
		{"c", 0},
	})
	out := buf.String()
	if !strings.Contains(out, "demo") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	// The 100% bar must be strictly longer than the 50% bar.
	full := strings.Count(lines[1], "█")
	half := strings.Count(lines[2], "█")
	zero := strings.Count(lines[3], "█")
	if !(full > half && half > zero) {
		t.Fatalf("bar lengths not ordered: %d / %d / %d", full, half, zero)
	}
	if full != 10 {
		t.Fatalf("max bar %d cells, want 10", full)
	}
	if !strings.Contains(lines[1], "100.00%") {
		t.Error("value annotation missing")
	}
}

func TestHBarFixedScaleAndClamping(t *testing.T) {
	var buf bytes.Buffer
	HBar(&buf, Config{Width: 8, Min: 0, Max: 10}, []Bar{
		{"over", 20}, // clamps to full
		{"neg", -5},  // clamps to empty
	})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if strings.Count(lines[0], "█") != 8 {
		t.Error("over-scale bar must clamp to full width")
	}
	if strings.Count(lines[1], "█") != 0 {
		t.Error("negative bar must clamp to empty")
	}
}

func TestHBarDegenerateScale(t *testing.T) {
	var buf bytes.Buffer
	HBar(&buf, Config{Width: 8}, []Bar{{"zero", 0}})
	if !strings.Contains(buf.String(), "0.00") {
		t.Error("all-zero data must still render")
	}
}
