// Package plot renders the evaluation's data series as terminal bar charts
// — the quickest way to *see* the paper's figures without leaving the
// repository. It is deliberately dependency-free: Unicode block glyphs on a
// fixed-width grid.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Bar is one labeled value.
type Bar struct {
	Label string
	Value float64
}

// Config styles a chart.
type Config struct {
	// Title is printed above the chart.
	Title string
	// Width is the maximum bar length in cells (default 48).
	Width int
	// Unit is appended to each value (e.g. "%", "x").
	Unit string
	// Min/Max fix the scale; with both zero the scale fits the data
	// (including zero).
	Min, Max float64
}

// glyphs are the eighth-block partial fills.
var glyphs = []rune(" ▏▎▍▌▋▊▉█")

// HBar renders a horizontal bar chart.
func HBar(w io.Writer, cfg Config, bars []Bar) {
	if cfg.Width <= 0 {
		cfg.Width = 48
	}
	lo, hi := cfg.Min, cfg.Max
	if lo == 0 && hi == 0 {
		for _, b := range bars {
			lo = math.Min(lo, b.Value)
			hi = math.Max(hi, b.Value)
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	labelW := 0
	for _, b := range bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	if cfg.Title != "" {
		fmt.Fprintln(w, cfg.Title)
	}
	for _, b := range bars {
		frac := (b.Value - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		cells := frac * float64(cfg.Width)
		full := int(cells)
		rem := cells - float64(full)
		var sb strings.Builder
		for i := 0; i < full; i++ {
			sb.WriteRune('█')
		}
		if full < cfg.Width {
			sb.WriteRune(glyphs[int(rem*8)])
		}
		fmt.Fprintf(w, "%-*s │%-*s│ %.2f%s\n", labelW, b.Label, cfg.Width, sb.String(), b.Value, cfg.Unit)
	}
}
