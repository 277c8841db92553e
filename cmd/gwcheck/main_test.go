package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// coverageLine is the shape of a plain check's last line; which rows it
// names is mutate.TestKillGridRowCoverage's business.
var coverageLine = regexp.MustCompile(`^mesi +rows dispatched \d+/\d+, never: \S+( \S+)*$`)

func gwcheck(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = realMain(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestCheckOneProtocol: a plain check of a sound protocol exits 0, reports
// every sweep of the grid and ends on the row-coverage line.
func TestCheckOneProtocol(t *testing.T) {
	code, out, errs := gwcheck("-protocol", "mesi")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", code, errs)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !coverageLine.MatchString(last) {
		t.Errorf("last line %q is not mesi's row coverage", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.HasSuffix(l, " ok") {
			t.Errorf("sweep line %q does not end in ok", l)
		}
	}
	if len(lines) != 6 {
		t.Errorf("%d lines, want five sweeps and the coverage line:\n%s", len(lines), out)
	}
}

// TestUnknownProtocol: a name the registry does not know is a usage error.
func TestUnknownProtocol(t *testing.T) {
	code, out, errs := gwcheck("-protocol", "nope")
	if code != 2 || out != "" || !strings.Contains(errs, `unknown protocol "nope"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 and the unknown-protocol message", code, out, errs)
	}
}

// TestBudgetSkipsAreNotPasses pins the contract CI's kill-matrix step leans
// on: a matrix that ran out of budget exits non-zero and says why, so a
// matrix that got slow fails the step instead of passing it on fewer
// mutants.
func TestBudgetSkipsAreNotPasses(t *testing.T) {
	code, out, errs := gwcheck("-mutate", "-protocol", "mesi", "-budget", "1ns")
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(errs, "mutants skipped on budget — unverified, not passed") {
		t.Errorf("stderr %q lacks the skipped-on-budget message", errs)
	}
	if !strings.Contains(out, "skipped (budget)") {
		t.Errorf("the matrix header does not count the skipped mutants:\n%s", out)
	}
}
