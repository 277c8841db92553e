package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// resultFingerprint hashes a cell's full RunResult (cycles, stats, energy,
// quality) via its JSON form — the same serialization the disk cache
// stores, so equality here is equality of everything a sweep can observe.
func resultFingerprint(t *testing.T, res RunResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ablationPins is every cell of the protocol-ablation grid (Table 2 suite
// × registered protocol tables, scale 1, 24 threads), recorded at commit
// 0a96c2e on the shared-wheel engine, the last commit that also had a
// windowed one (which produced the same values at 2, 4 and 8 shards). A
// cell that never scribbles runs the same under mesi and gw-noGI.
// The ghostwriter values moved only in Stats.Events when the GI sweep
// became one machine-level timer (EXPERIMENTS.md, "One GI-sweep timer").
var ablationPins = map[string]string{
	"protocols histogram mesi":                "93f6aebfb9ef349ea331c634131ec3f4c3bd113caa7383827ad2965b7164cd83",
	"protocols histogram ghostwriter":         "dac58e0de8eb633578ce3748a4dc63f7709d54fbfc15ab45448c8c4c6ef10aa1",
	"protocols histogram gw-noGI":             "93f6aebfb9ef349ea331c634131ec3f4c3bd113caa7383827ad2965b7164cd83",
	"protocols linear_regression mesi":        "cb1e3eaa7c43d1ece9ef4d715574965cc04865f143626861c933f2d16655a0c8",
	"protocols linear_regression ghostwriter": "f9328fbad5c97a74b83a8be5d395acd2068a2e7d2ec898403c06f5771ca14897",
	"protocols linear_regression gw-noGI":     "f7be48711bc4f432ed140ea40aaf6d6a47dafdb240b7d483b9a766e2e7737a12",
	"protocols pca mesi":                      "7de546bae4db31d1457b6b118c19000645b6f54c50201a6a48d709258ad27bee",
	"protocols pca ghostwriter":               "b153ec5eee57f21bd0aaf6f3b254076ba57797de6839f9e1753d0beb3e667cf3",
	"protocols pca gw-noGI":                   "ad73f28cf26327cd3efb4ac6e21e88931d343494daf4e9fcfc478527495821a6",
	"protocols blackscholes mesi":             "dd8807a4df5b2564a3ed12872ddb3cbbf2db19d2e1ac77fc9096c507e8681fce",
	"protocols blackscholes ghostwriter":      "4c625d2146546e736f800db702cb46e9dfcc8cc09977aecd70eb009c3508d2cf",
	"protocols blackscholes gw-noGI":          "dd8807a4df5b2564a3ed12872ddb3cbbf2db19d2e1ac77fc9096c507e8681fce",
	"protocols inversek2j mesi":               "64de67bcc3f9c7a54c80ea409314473fbcf31366734342ca7503a829f6f5ce61",
	"protocols inversek2j ghostwriter":        "73afa3c8c92b955dcd9ccc8adf0e26983a4e63781814f3eeb6954295809b4c1d",
	"protocols inversek2j gw-noGI":            "879cf89cf9b06c0776eef8939737593165ab0c18eb1a71380ef5a6127b219a8e",
	"protocols jpeg mesi":                     "71a036f960e1a20862314a2620a587ae96f61b1360dc614cbf4e36376a24a5cb",
	"protocols jpeg ghostwriter":              "b35f343037e2f202223d9823dcd7c8c8d32e93a52865ab25974261d424a920ba",
	"protocols jpeg gw-noGI":                  "4608975f6a9d604e3e34ddd43ff47bb6278ab905f89732f9d3d9f1c8c7f6a6fb",
}

// TestShardDeterminismAblationGrid holds every cell of the grid to its
// pinned RunResult: the engine under the harness may be rebuilt, the
// simulated schedule may not move. Cells run in parallel, so under -race
// this also exercises simultaneous machines.
func TestShardDeterminismAblationGrid(t *testing.T) {
	jobs := protoJobs(Options{Scale: 1, Threads: 24})
	if len(jobs) != len(ablationPins) {
		t.Fatalf("grid has %d cells, %d pinned", len(jobs), len(ablationPins))
	}
	if testing.Short() {
		jobs = jobs[:3] // one application, all protocols
	}
	for _, j := range jobs {
		j := j
		t.Run(j.Label, func(t *testing.T) {
			t.Parallel()
			res, _, err := Simulate(j.Spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultFingerprint(t, res); got != ablationPins[j.Label] {
				t.Errorf("fingerprint %s, pinned %s", got, ablationPins[j.Label])
			}
		})
	}
}
