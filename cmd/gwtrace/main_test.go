package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = realMain(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestGenerateAndReplay pins the report of a generated migratory trace
// replayed under ghostwriter at d=8.
func TestGenerateAndReplay(t *testing.T) {
	code, out, errs := runCmd("-gen", "migratory", "-threads", "8", "-rounds", "50", "-replay", "-", "-d", "8")
	want := `generated migratory trace: 8 threads, 808 ops
replayed under ghostwriter (d=8): 602 cycles
messages:            GETS=8 GETX=0 UPGRADE=0 Data=9 Other=9 total=26
approx:              GS=399 GI=0 fallbacks=0
`
	if code != 0 || errs != "" || out != want {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, errs, out, want)
	}
}

// TestBadThreadCounts: a thread count the machine cannot pin one per core
// is an error and a non-zero exit, not a panic.
func TestBadThreadCounts(t *testing.T) {
	for _, tc := range []struct {
		threads, wantErr string
	}{
		{"32", "cannot replay a 32-thread trace on 24 cores"},
		{"0", "-threads 0: a trace needs at least one thread"},
	} {
		code, _, errs := runCmd("-gen", "migratory", "-threads", tc.threads, "-rounds", "5", "-replay", "-")
		if code != 1 || errs != "gwtrace: "+tc.wantErr+"\n" {
			t.Errorf("-threads %s: exit %d, stderr %q; want 1 and %q", tc.threads, code, errs, tc.wantErr)
		}
	}
	// The same 32 threads fit a 64-node torus.
	if code, out, errs := runCmd("-gen", "migratory", "-threads", "32", "-rounds", "5", "-replay", "-", "-topo", "torus", "-nodes", "64"); code != 0 || !strings.Contains(out, "replayed under") {
		t.Errorf("32 threads on a 64-node torus: exit %d, stderr %q", code, errs)
	}
}

// TestLargeDistanceClamps: a -d past int8 replays like -d 64, the widest
// distance a 32-bit scribble uses, instead of wrapping (128 read as "leave
// the scribe alone", 200 as a negative d, 300 as 44). Only the header,
// which echoes the flag, differs.
func TestLargeDistanceClamps(t *testing.T) {
	replay := func(d string) (header, rest string) {
		t.Helper()
		code, out, errs := runCmd("-gen", "migratory", "-threads", "8", "-rounds", "50", "-replay", "-", "-d", d)
		if code != 0 || errs != "" {
			t.Fatalf("-d %s: exit %d, stderr %q", d, code, errs)
		}
		_, out, _ = strings.Cut(out, "\n") // the "generated" line
		header, rest, _ = strings.Cut(out, "\n")
		return header, rest
	}
	_, want := replay("64")
	if !strings.Contains(want, "GS=399") {
		t.Fatalf("-d 64 replay lost its GS entries:\n%s", want)
	}
	for _, d := range []string{"127", "128", "200", "300"} {
		header, rest := replay(d)
		if header != "replayed under ghostwriter (d="+d+"): 602 cycles" || rest != want {
			t.Errorf("-d %s:\n%s\n%s\nwant it to replay like -d 64:\n%s", d, header, rest, want)
		}
	}
}
