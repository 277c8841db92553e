package workloads

import (
	"testing"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/quality"
)

// runApp prepares and runs one app instance and returns the system.
func runApp(t *testing.T, app App, proto ghostwriter.Protocol, threads, d int) *ghostwriter.System {
	t.Helper()
	sys := ghostwriter.New(ghostwriter.Config{Protocol: proto})
	app.SetDDist(d)
	app.Prepare(sys)
	sys.Run(threads, app.Kernel)
	if !sys.Machine().Quiesced() {
		t.Fatalf("%T: not quiesced after run", app)
	}
	return sys
}

// TestBaselineIsExact runs every application under the baseline protocol
// and requires bit-exact agreement with the host-computed golden output —
// the strongest end-to-end correctness check of the whole simulator stack.
func TestBaselineIsExact(t *testing.T) {
	factories := All()
	for _, f := range factories {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			app := f.New(1)
			sys := runApp(t, app, ghostwriter.Baseline, 8, 8)
			if err := sys.CheckInvariants(true); err != nil {
				t.Fatal(err)
			}
			out, gold := app.Output(sys), app.Golden()
			if len(out) != len(gold) {
				t.Fatalf("output length %d, golden %d", len(out), len(gold))
			}
			for i := range out {
				if out[i] != gold[i] {
					t.Fatalf("output[%d] = %v, golden %v", i, out[i], gold[i])
				}
			}
			if e := quality.Measure(f.Metric, out, gold); e != 0 {
				t.Fatalf("baseline error %v%%, want 0", e)
			}
		})
	}
}

// TestGhostwriterErrorIsLow runs every application under Ghostwriter at
// d-distance 8 and requires the output error to stay low — the paper
// reports < 0.12% across the suite (Fig. 11); we allow a slack factor for
// the scaled inputs. The Table 2 suite and the extension apps are both
// held to the bound.
func TestGhostwriterErrorIsLow(t *testing.T) {
	for _, f := range append(Suite(), Extensions()...) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			app := f.New(1)
			sys := runApp(t, app, ghostwriter.Ghostwriter, 8, 8)
			if err := sys.CheckInvariants(false); err != nil {
				t.Fatal(err)
			}
			e := quality.Measure(f.Metric, app.Output(sys), app.Golden())
			if e > 5 {
				t.Fatalf("%s error %v%% (%v) exceeds 5%%", f.Name, e, f.Metric)
			}
			t.Logf("%s: %v = %.4f%%", f.Name, f.Metric, e)
		})
	}
}

// TestLinregExhibitsFalseSharingAndGSRelief checks the paper's headline
// application behaviour: heavy UPGRADE traffic under baseline, a large
// fraction of S-store misses absorbed by GS under Ghostwriter, and a
// traffic reduction between the two.
func TestLinregExhibitsFalseSharingAndGSRelief(t *testing.T) {
	base := runApp(t, NewLinearRegression(1), ghostwriter.Baseline, 8, -1)
	gw := runApp(t, NewLinearRegression(1), ghostwriter.Ghostwriter, 8, 8)

	bst, gst := base.Stats(), gw.Stats()
	if bst.StoresOnS == 0 {
		t.Fatal("baseline linreg shows no stores missing on S; the false-sharing layout is broken")
	}
	if gst.ServicedByGS == 0 {
		t.Fatal("ghostwriter linreg never used GS")
	}
	frac := float64(gst.ServicedByGS) / float64(gst.StoresOnS)
	if frac < 0.2 {
		t.Fatalf("GS serviced only %.1f%% of S-store misses; paper shape is ~60-70%%", frac*100)
	}
	if gst.TotalMsgs() >= bst.TotalMsgs() {
		t.Fatalf("ghostwriter traffic %d not below baseline %d", gst.TotalMsgs(), bst.TotalMsgs())
	}
	t.Logf("linreg: GS serviced %.1f%% of S-store misses; traffic %d → %d",
		frac*100, bst.TotalMsgs(), gst.TotalMsgs())
}

// TestJPEGUsesBothApproxStates checks §4.2's claim that jpeg exercises GS
// and GI.
func TestJPEGUsesBothApproxStates(t *testing.T) {
	sys := runApp(t, NewJPEG(1), ghostwriter.Ghostwriter, 8, 8)
	st := sys.Stats()
	if st.ServicedByGS == 0 {
		t.Error("jpeg never used GS")
	}
	if st.ServicedByGI == 0 {
		t.Error("jpeg never used GI")
	}
	t.Logf("jpeg: GS=%d GI=%d fallbacks=%d", st.ServicedByGS, st.ServicedByGI, st.ScribbleFallbacks)
}

// TestBadDotProductFailsToScale reproduces the Fig. 1 contrast: the
// Listing 1 kernel's false sharing destroys parallel scaling under
// baseline MESI (it plateaus near single-thread performance, with
// contention worsening as threads are added), while the privatized
// Listing 2 version scales almost linearly. See DESIGN.md §6 for why an
// in-order blocking-core model plateaus instead of dropping below 1.0 as
// the paper's motivational figure does.
func TestBadDotProductFailsToScale(t *testing.T) {
	cycles := func(priv bool, threads int) uint64 {
		app := NewDotProduct(1, priv)
		app.SetDDist(-1)
		sys := ghostwriter.New(ghostwriter.Config{})
		app.Prepare(sys)
		return sys.Run(threads, app.Kernel)
	}
	bad1, bad2, bad16 := cycles(false, 1), cycles(false, 2), cycles(false, 16)
	priv1, priv16 := cycles(true, 1), cycles(true, 16)
	badSpeedup := float64(bad1) / float64(bad16)
	privSpeedup := float64(priv1) / float64(priv16)
	if badSpeedup > 2.5 {
		t.Errorf("Listing 1 at 16 threads speeds up %.1fx; false sharing should cap it near 1x", badSpeedup)
	}
	if privSpeedup < 8 {
		t.Errorf("Listing 2 at 16 threads speeds up only %.1fx; privatization should scale", privSpeedup)
	}
	if bad16 < bad2 {
		t.Errorf("Listing 1 contention should not improve from 2 threads (%d) to 16 (%d)", bad2, bad16)
	}
	t.Logf("bad: 1T=%d 2T=%d 16T=%d (%.2fx); priv: 1T=%d 16T=%d (%.2fx)",
		bad1, bad2, bad16, badSpeedup, priv1, priv16, privSpeedup)
}

func TestRegistry(t *testing.T) {
	if len(Suite()) != 6 {
		t.Fatalf("Table 2 has 6 applications, registry has %d", len(Suite()))
	}
	for _, name := range []string{"histogram", "linear_regression", "pca",
		"blackscholes", "inversek2j", "jpeg", "kmeans", "sobel", "fft",
		"bad_dot_product", "priv_dot_product"} {
		f, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != name {
			t.Errorf("Lookup(%q) returned factory %q", name, f.Name)
		}
		if f.Suite == "" || f.Domain == "" {
			t.Errorf("%s missing suite/domain metadata", name)
		}
	}
	if _, err := Lookup("no_such_app"); err == nil {
		t.Error("Lookup of unknown app must fail")
	}
}

func TestSpan(t *testing.T) {
	for _, n := range []int{0, 1, 7, 24, 100} {
		for _, nt := range []int{1, 3, 8, 24} {
			covered := 0
			prevHi := 0
			for id := 0; id < nt; id++ {
				lo, hi := span(n, id, nt)
				if lo != prevHi {
					t.Fatalf("span(%d,%d,%d): gap at %d", n, id, nt, lo)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("span over n=%d nt=%d covered %d", n, nt, covered)
			}
		}
	}
}
