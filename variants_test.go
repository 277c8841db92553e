package ghostwriter_test

import "testing"

// variantPins are the measured numbers of every row of the four variant
// benchmarks, each selecting its design by table name. The values are the
// ones the same rows measured when MSI, the migratory optimization, stale
// loads and the scribble residency policy were configuration knobs bending
// the base tables, so they pin that turning each knob into a table of its
// own changed no simulated number.
var variantPins = []struct {
	bench string
	row   variantRow
	run   func(variantRow) variantResult
	want  variantResult
}{
	{"Ablation_MSIBase", variantRow{"mesi", "ghostwriter", 8}, runLinreg, variantResult{29315, 10796, 22208, 0, 0}},
	{"Ablation_MSIBase", variantRow{"msi", "gw-msi", 8}, runLinreg, variantResult{29365, 10784, 21103, 0, 0}},
	{"RelatedWork_MigratoryBaselines", variantRow{"mesi", "mesi", -1}, runMigratory, variantResult{41364, 7721, 0, 0, 0}},
	{"RelatedWork_MigratoryBaselines", variantRow{"mesi+migratory-opt", "mesi-mig", -1}, runMigratory, variantResult{41364, 7721, 0, 0, 0}},
	{"RelatedWork_MigratoryBaselines", variantRow{"ghostwriter-d8", "ghostwriter", 8}, runMigratory, variantResult{3027, 123, 3183, 0, 0}},
	{"RelatedWork_ApproxCoherence", variantRow{"mesi", "mesi", -1}, runLinreg, variantResult{45617, 48447, 0, 0, 0}},
	{"RelatedWork_ApproxCoherence", variantRow{"stale-loads", "mesi-stale", 8}, runLinreg, variantResult{41740, 35026, 0, 1837, 0}},
	{"RelatedWork_ApproxCoherence", variantRow{"ghostwriter", "ghostwriter", 8}, runLinreg, variantResult{29315, 10796, 22208, 0, 0}},
	{"RelatedWork_ApproxCoherence", variantRow{"both", "gw-stale", 8}, runLinreg, variantResult{19697, 3274, 24058, 1519, 0}},
	{"Ablation_ScribblePolicy", variantRow{"hybrid", "ghostwriter", 8}, runLinreg, variantResult{29315, 10796, 22208, 0, 0}},
	{"Ablation_ScribblePolicy", variantRow{"resident", "gw-resident", 8}, runLinreg, variantResult{20200, 3727, 39662, 0, 0}},
	{"Ablation_ScribblePolicy", variantRow{"escalate", "gw-escalate", 8}, runLinreg, variantResult{44173, 43939, 3308, 0, 0}},
}

// TestVariantPins runs every pinned row and checks that the benchmarks run
// exactly the pinned rows.
func TestVariantPins(t *testing.T) {
	pinned := map[string]variantRow{}
	for _, p := range variantPins {
		pinned[p.bench+"/"+p.row.name] = p.row
		if got := p.run(p.row); got != p.want {
			t.Errorf("%s/%s (%s, d=%d): got %+v, want %+v", p.bench, p.row.name, p.row.protocol, p.row.d, got, p.want)
		}
	}
	benches := map[string][]variantRow{
		"Ablation_MSIBase":               msiBaseRows,
		"RelatedWork_MigratoryBaselines": migratoryRows,
		"RelatedWork_ApproxCoherence":    approxRows,
		"Ablation_ScribblePolicy":        scribblePolicyRows,
	}
	n := 0
	for bench, rows := range benches {
		for _, r := range rows {
			n++
			if p, ok := pinned[bench+"/"+r.name]; !ok || p != r {
				t.Errorf("Benchmark%s/%s runs %+v, pinned as %+v", bench, r.name, r, p)
			}
		}
	}
	if n != len(variantPins) {
		t.Errorf("the benchmarks run %d rows, %d are pinned", n, len(variantPins))
	}
}
