package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzTraceLoad feeds Load arbitrary bytes. It must never panic — a trace
// file is outside input — and whatever it accepts must survive Save→Load
// unchanged. The format has one encoding per trace, so Save also reproduces
// the bytes Load consumed. The committed seeds include a 16-byte file whose
// op count is 2^62.
func FuzzTraceLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("Save wrote %d bytes that are not a prefix of the %d-byte input", buf.Len(), len(data))
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved trace: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("Save→Load changed the trace: %d threads/%d ops, want %d/%d",
				again.NumThreads(), again.Ops(), tr.NumThreads(), tr.Ops())
		}
	})
}
