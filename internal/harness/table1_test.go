package harness

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// TestTable1Pinned pins Table 1 as printed for every registered topology at
// the Table 1 node count and at 64 nodes. testdata/table1.golden holds each
// table after a "== topo nodes" line. The sweep's fingerprint covers only
// the default mesh's table; this covers the timing constants, the topology
// descriptions and the directory placement of the rest.
func TestTable1Pinned(t *testing.T) {
	want, err := os.ReadFile("testdata/table1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, topo := range []string{"mesh", "ring", "torus", "xbar"} {
		for _, nodes := range []int{24, 64} {
			fmt.Fprintf(&got, "== %s %d\n", topo, nodes)
			Table1(&got, Options{Topo: topo, Nodes: nodes})
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Table 1 moved:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
