package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ghostwriter/internal/fault"
)

// reopen closes s (tolerating a broken store) and opens the dir again.
func reopen(t *testing.T, s *Store) (*Store, *Recovered) {
	t.Helper()
	s.Close()
	s2, rec, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s2, rec
}

func appendAll(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append([]byte(r), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

func recordsOf(rec *Recovered) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func wantRecords(t *testing.T, rec *Recovered, want ...string) {
	t.Helper()
	got := recordsOf(rec)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendReplayRoundTrip: records come back in order across a reopen,
// with no torn bytes.
func TestAppendReplayRoundTrip(t *testing.T) {
	s, rec, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh dir recovered %+v, want empty", rec)
	}
	appendAll(t, s, "alpha", "beta", "gamma")
	s2, rec2 := reopen(t, s)
	defer s2.Close()
	wantRecords(t, rec2, "alpha", "beta", "gamma")
	if rec2.TornBytes != 0 {
		t.Errorf("clean log reports %d torn bytes", rec2.TornBytes)
	}
	// The reopened store appends on the same stream.
	appendAll(t, s2, "delta")
	s3, rec3 := reopen(t, s2)
	defer s3.Close()
	wantRecords(t, rec3, "alpha", "beta", "gamma", "delta")
}

// TestTornTailDiscarded: a record cut mid-frame (the write a crash
// interrupted) is discarded on reopen, the file is truncated back to the
// last intact frame, and appends continue cleanly.
func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "keep-1", "keep-2", "torn-record-payload")
	s.Close()

	// Tear the tail: chop into the last record's payload.
	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec, "keep-1", "keep-2")
	if rec.TornBytes == 0 {
		t.Error("torn tail not reported")
	}
	appendAll(t, s2, "after-tear")
	s3, rec3 := reopen(t, s2)
	defer s3.Close()
	wantRecords(t, rec3, "keep-1", "keep-2", "after-tear")
	if rec3.TornBytes != 0 {
		t.Errorf("second reopen still reports %d torn bytes", rec3.TornBytes)
	}
}

// TestCorruptTailCRCDiscarded: flipping a bit in the last record's payload
// fails its CRC and drops exactly that record.
func TestCorruptTailCRCDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "good", "corrupted")
	s.Close()

	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantRecords(t, rec, "good")
	if rec.TornBytes == 0 {
		t.Error("CRC-corrupt tail not reported as torn")
	}
}

// TestCorruptionMidFileStopsReplay: framing is a stream, so a bad record
// makes everything after it unreachable — replay stops there and the tail
// is discarded. This is the documented (conservative) behaviour.
func TestCorruptionMidFileStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "first", "second-corrupted", "third")
	s.Close()

	path := filepath.Join(dir, logName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	off := HeaderSize + len("first") + HeaderSize + 3
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantRecords(t, rec, "first")
}

// dirHolds fails unless dir holds exactly the files named.
func dirHolds(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s holds %q, want %q", dir, got, want)
	}
}

// TestCompactReplacesLogWhole: after a compaction the directory holds only
// wal.log, and reopen returns the compacted records followed by those
// appended after them — none of the records the compaction replaced.
func TestCompactReplacesLogWhole(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "a", "b", "c")
	if err := s.Compact([][]byte{[]byte("ab"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if got := s.Appends(); got != 0 {
		t.Errorf("Appends after compact = %d, want 0", got)
	}
	dirHolds(t, dir, logName)
	appendAll(t, s, "d", "e")
	if got := s.Appends(); got != 2 {
		t.Errorf("Appends = %d, want 2", got)
	}

	s2, rec := reopen(t, s)
	defer s2.Close()
	wantRecords(t, rec, "ab", "c", "d", "e")
}

// TestCrashAtEachCompactStep: a compaction that dies before its temp file
// is written (wal.compact) or after the temp file's fsync but before the
// rename (wal.rename) changes nothing on disk but the temp file, which is
// gone; the old log stays in use and reopens whole, with no record twice.
func TestCrashAtEachCompactStep(t *testing.T) {
	for _, point := range []string{"wal.compact", "wal.rename"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.New(fault.Rule{Point: point, N: 1, Kind: fault.Fail})
			s, _, err := Open(dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, s, "a", "b")
			if err := s.Compact([][]byte{[]byte("ab")}); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("compact error = %v, want injected", err)
			}
			dirHolds(t, dir, logName)
			appendAll(t, s, "c")
			s2, rec := reopen(t, s)
			defer s2.Close()
			wantRecords(t, rec, "a", "b", "c")
		})
	}
}

// TestOpenRefusesOlderSnapshot: older builds compacted into a separate
// snapshot file and kept only the records after it in the log, so a
// directory holding one is refused by name rather than half-replayed.
func TestOpenRefusesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "snapshot")
	if err := os.WriteFile(old, []byte(`{"records":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(dir, nil)
	if err == nil {
		s.Close()
		t.Fatal("a directory with an older build's snapshot opened")
	}
	if !strings.Contains(err.Error(), old) {
		t.Errorf("error %q does not name %s", err, old)
	}
}

// TestInjectedShortWriteBreaksStoreUntilReopen: a torn append leaves the
// file and the frame accounting divergent, so the store refuses further
// work; reopen discards the torn prefix and recovers the acked records.
func TestInjectedShortWriteBreaksStoreUntilReopen(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Rule{Point: "wal.append", N: 3, Kind: fault.ShortWrite, Bytes: 5})
	s, _, err := Open(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "one", "two")
	if err := s.Append([]byte("torn"), true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append error = %v, want injected", err)
	}
	if err := s.Append([]byte("more"), false); err == nil {
		t.Fatal("broken store accepted a further append")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("broken store accepted a Sync")
	}
	s2, rec, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	wantRecords(t, rec, "one", "two")
	if rec.TornBytes != 5 {
		t.Errorf("torn bytes = %d, want the 5 injected", rec.TornBytes)
	}
}

// TestInjectedFsyncErrorIsTransient: a failed fsync surfaces to the caller
// but does not break the store — the frame is intact and a later Sync
// succeeds and covers it.
func TestInjectedFsyncErrorIsTransient(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Rule{Point: "wal.sync", N: 1, Kind: fault.Fail})
	s, _, err := Open(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("rec"), true); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("synced append error = %v, want injected fsync failure", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("retried Sync failed: %v", err)
	}
	s2, rec := reopen(t, s)
	defer s2.Close()
	wantRecords(t, rec, "rec")
}

// TestInjectedCrashAtRecordN: for every N in a small sweep, a crash at the
// N'th append loses exactly the records from N on — never an earlier one.
func TestInjectedCrashAtRecordN(t *testing.T) {
	const total = 6
	for n := uint64(1); n <= total; n++ {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			inj := fault.New(fault.Rule{Point: "wal.append", N: n, Kind: fault.Crash})
			s, _, err := Open(dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for i := 0; i < total; i++ {
				if err := s.Append([]byte(fmt.Sprintf("r%d", i)), true); err != nil {
					break
				}
				acked++
			}
			if acked != int(n)-1 {
				t.Fatalf("acked %d records before the crash, want %d", acked, n-1)
			}
			s.Close()
			_, rec, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for i := 0; i < acked; i++ {
				want = append(want, fmt.Sprintf("r%d", i))
			}
			wantRecords(t, rec, want...)
		})
	}
}

// TestAppendRejectsDegenerateRecords: empty and oversized records are
// errors before anything touches the file.
func TestAppendRejectsDegenerateRecords(t *testing.T) {
	s, _, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(nil, false); err == nil {
		t.Error("empty record accepted")
	}
	if err := s.Append(make([]byte, maxRecordBytes+1), false); err == nil {
		t.Error("oversized record accepted")
	}
}

// TestClosedStoreRefusesWork: operations after Close fail with ErrClosed.
func TestClosedStoreRefusesWork(t *testing.T) {
	s, _, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("x"), false); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close = %v, want ErrClosed", err)
	}
	if err := s.Compact([][]byte{[]byte("s")}); !errors.Is(err, ErrClosed) {
		t.Errorf("compact after close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close = %v, want nil", err)
	}
}

// TestParseFrameLengths pins what ParseFrame's n means on each outcome:
// the frame's length on success and on a CRC mismatch, the bytes needed on
// a short read, and 0 when the length prefix is out of range.
func TestParseFrameLengths(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	bad := bytes.Clone(frame)
	bad[len(bad)-1] ^= 1
	for _, tc := range []struct {
		name string
		b    []byte
		n    int
		err  error
	}{
		{"whole", frame, len(frame), nil},
		{"whole, trailing bytes", append(bytes.Clone(frame), 1, 2, 3), len(frame), nil},
		{"short header", frame[:5], HeaderSize, ErrShortFrame},
		{"short payload", frame[:len(frame)-1], len(frame), ErrShortFrame},
		{"bad crc", bad, len(frame), ErrBadFrame},
		{"zero length", make([]byte, HeaderSize), 0, ErrBadFrame},
		{"length out of range", binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1), 0, ErrBadFrame},
	} {
		b := tc.b
		if len(b) < HeaderSize && tc.err == ErrBadFrame {
			b = append(b, 0, 0, 0, 0)
		}
		payload, n, err := ParseFrame(b)
		if n != tc.n || err != tc.err {
			t.Errorf("%s: n=%d err=%v, want n=%d err=%v", tc.name, n, err, tc.n, tc.err)
		}
		if err == nil && string(payload) != "payload" {
			t.Errorf("%s: payload %q", tc.name, payload)
		}
	}
}

// FuzzWALOpen: whatever bytes a crash leaves as wal.log, Open must not
// panic; the records it returns must re-frame byte for byte to the prefix
// it kept, the file must be truncated to that prefix, and a second Open
// must find the same records and no torn bytes. Seeds under
// testdata/fuzz/FuzzWALOpen hold a clean log, a torn header, a bad CRC and
// a length running past EOF.
func FuzzWALOpen(f *testing.F) {
	reframe := func(recs [][]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(r)))
			out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(r, castagnoli))
			out = append(out, r...)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := int64(len(raw)) - rec.TornBytes
		if rec.TornBytes < 0 || kept < 0 {
			t.Fatalf("TornBytes %d out of range for a %d-byte log", rec.TornBytes, len(raw))
		}
		if framed := reframe(rec.Records); !bytes.Equal(framed, raw[:kept]) {
			t.Fatalf("%d records re-frame to %d bytes that are not the %d-byte kept prefix", len(rec.Records), len(framed), kept)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if disk, err := os.ReadFile(path); err != nil || !bytes.Equal(disk, raw[:kept]) {
			t.Fatalf("log on disk is %d bytes (%v), want the %d-byte kept prefix", len(disk), err, kept)
		}
		s2, rec2, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if rec2.TornBytes != 0 {
			t.Errorf("second Open discarded %d more bytes", rec2.TornBytes)
		}
		if !bytes.Equal(reframe(rec2.Records), raw[:kept]) {
			t.Errorf("second Open returned %d records, want the first Open's %d", len(rec2.Records), len(rec.Records))
		}
	})
}
