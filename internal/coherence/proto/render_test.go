package proto

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden table renderings")

// TestMarkdownGolden pins the rendered protocol tables byte-for-byte
// against committed goldens: the rendering is documentation (`ghostwriter
// -tables`, DESIGN.md §4.2) and the mutation factory's no-op oracle
// (TestMutantsDiffer), so silent drift in either the tables or the
// renderer must show up as a reviewable diff. Regenerate with
// `go test ./internal/coherence/proto/ -run TestMarkdownGolden -update`.
func TestMarkdownGolden(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			got := Markdown(MustLookup(name))
			path := filepath.Join("testdata", name+".md")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden)", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("rendering drifted from %s at line %d:\n got: %s\nwant: %s\n(-update regenerates)",
						path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("rendering drifted from %s: %d lines vs %d (-update regenerates)",
				path, len(gl), len(wl))
		})
	}
}

// TestDesignExcerptIsRendered pins DESIGN.md §4.2's hand-typed excerpt of
// the ghostwriter table to the table itself: every row shown there must be
// a line of Markdown(ghostwriter), so an edited rule cannot leave the
// design document describing the old one.
func TestDesignExcerptIsRendered(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n### 4.2 ")
	if !ok {
		t.Fatal("DESIGN.md has no §4.2")
	}
	sec, _, _ = strings.Cut(sec, "\n### ")
	rendered := map[string]bool{}
	for _, line := range strings.Split(Markdown(MustLookup("ghostwriter")), "\n") {
		rendered[line] = true
	}
	rows := 0
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| State |") {
			continue
		}
		rows++
		if !rendered[line] {
			t.Errorf("DESIGN.md §4.2 shows a row the ghostwriter table does not have:\n%s", line)
		}
	}
	if rows == 0 {
		t.Fatal("DESIGN.md §4.2 shows no table rows")
	}
}
