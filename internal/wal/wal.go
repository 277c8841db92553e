// Package wal is a minimal write-ahead log for the durable gwcached: an
// append-only file of length-prefixed, CRC32-C-framed records paired with a
// point-in-time snapshot, so a process can rebuild its in-memory state
// after a crash by loading the snapshot and replaying the tail.
//
// # Frame format
//
// Each record is
//
//	[u32 payload length][u32 CRC32-C of payload][payload]
//
// little-endian. AppendFrame and ParseFrame are the codec; the harness's
// result cache frames its pack files with them too. Replay stops at the
// first frame that does not parse — a truncated header, a length running
// past EOF, or a CRC mismatch — and truncates the file there: a torn tail
// record (the write the crash interrupted) is discarded, never
// half-applied. The discarded record was by definition never acknowledged
// (acknowledgement requires the append, and for durability-critical
// records the fsync, to return), so dropping it is exactly the contract
// the caller relies on.
//
// # Compaction
//
// Compact(snapshot) writes the snapshot to a temp file, fsyncs, renames it
// over the snapshot file (atomic on POSIX), and only then truncates the
// log. A crash at any point leaves a recoverable pair: before the rename,
// the old snapshot plus the full log; after the rename but before the
// truncate, the new snapshot plus a log whose records may duplicate state
// already in the snapshot — which is why replay must be idempotent (the
// harness's dispatch records are).
//
// All file operations consult an optional fault.Injector (points
// "wal.append", "wal.sync", "wal.compact", "wal.truncate"), so crash and
// torn-write schedules are reproducible tests instead of power cuts.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"ghostwriter/internal/fault"
)

const (
	logName      = "wal.log"
	snapshotName = "snapshot"

	// HeaderSize is the length of a frame's header: the payload length
	// and the payload's CRC32-C.
	HeaderSize = 8
	// maxRecordBytes bounds one record; a larger length prefix is treated
	// as tail corruption, not an allocation request.
	maxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("wal: store is closed")
	// ErrShortFrame reports bytes that hold only the start of a frame: a
	// torn tail, or a frame another writer has not finished.
	ErrShortFrame = errors.New("wal: short frame")
	// ErrBadFrame reports a frame whose length prefix is out of range or
	// whose CRC does not match its payload.
	ErrBadFrame = errors.New("wal: corrupt frame")
)

// AppendFrame appends the frame of payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// ParseFrame decodes the frame at the start of b. It returns the payload,
// which aliases b, and n, the frame's length in bytes. On ErrShortFrame, n
// is how many bytes b must hold to go further. On ErrBadFrame, n is the
// length of the frame whose CRC failed, so the caller may skip it, or 0
// when the length prefix itself is out of range and nothing after it can
// be framed.
func ParseFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < HeaderSize {
		return nil, HeaderSize, ErrShortFrame
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || size > maxRecordBytes {
		return nil, 0, ErrBadFrame
	}
	n = HeaderSize + int(size)
	if n > len(b) {
		return nil, n, ErrShortFrame
	}
	payload = b[HeaderSize:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, n, ErrBadFrame
	}
	return payload, n, nil
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Snapshot is the last compacted snapshot, nil when none was written.
	Snapshot []byte
	// Records are the log records appended after Snapshot, in order. A
	// record may duplicate state already in Snapshot if a crash interrupted
	// a compaction between the snapshot rename and the log truncate; replay
	// must be idempotent.
	Records [][]byte
	// TornBytes is how many trailing bytes were discarded as a torn or
	// corrupt tail record; zero on a clean log.
	TornBytes int64
}

// Store is the snapshot + log pair rooted in one directory. It is safe for
// concurrent use; appends are serialized.
type Store struct {
	mu     sync.Mutex
	dir    string
	inj    *fault.Injector
	log    *os.File
	size   int64 // length of the valid framed prefix of the log
	dirty  bool  // appended records not yet fsync'd
	since  uint64
	broken error // a failed append left an unframed tail; the store is dead
}

// Open opens (creating if needed) the store in dir and scans it: the
// returned Recovered holds the snapshot and every intact log record, and
// the log file is truncated after the last intact record so new appends
// continue a well-framed stream. inj may be nil.
func Open(dir string, inj *fault.Injector) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	rec := &Recovered{}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err == nil {
		rec.Snapshot = snap
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: open snapshot: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open log: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: scan log: %w", err)
	}
	valid := int64(0)
	for {
		payload, n, err := ParseFrame(raw[valid:])
		if err != nil {
			break
		}
		rec.Records = append(rec.Records, bytes.Clone(payload))
		valid += int64(n)
	}
	if torn := int64(len(raw)) - valid; torn > 0 {
		rec.TornBytes = torn
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek: %w", err)
	}
	return &Store{dir: dir, inj: inj, log: f, size: valid}, rec, nil
}

// Append writes one record; with sync it is also fsync'd before returning,
// making the record durable. An append that fails at the write level (a
// short write leaves an unframed tail on disk) marks the store broken —
// the in-memory state and the file have diverged and only a re-open, which
// discards the torn tail, can reconcile them. A failed fsync alone does
// not break the store: the frame is intact, and a later successful sync
// (or the retried, idempotent record) makes it durable.
func (s *Store) Append(payload []byte, sync bool) error {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: append: record size %d out of range", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	frame := AppendFrame(make([]byte, 0, HeaderSize+len(payload)), payload)

	allowed, ferr := s.inj.Write("wal.append", len(frame))
	if ferr != nil {
		// Land the injected torn prefix so recovery really has to discard it.
		if allowed > 0 {
			s.log.Write(frame[:allowed])
		}
		s.broken = fmt.Errorf("wal: append: %w", ferr)
		return s.broken
	}
	if n, err := s.log.Write(frame); err != nil || n != len(frame) {
		if err == nil {
			err = fmt.Errorf("short write: %d of %d bytes", n, len(frame))
		}
		s.broken = fmt.Errorf("wal: append: %w", err)
		return s.broken
	}
	s.size += int64(len(frame))
	s.since++
	s.dirty = true
	if sync {
		return s.syncLocked()
	}
	return nil
}

// Sync fsyncs any unsynced appends.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

func (s *Store) usableLocked() error {
	if s.log == nil {
		return ErrClosed
	}
	return s.broken
}

func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.inj.Op("wal.sync"); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	s.dirty = false
	return nil
}

// Appends reports how many records were appended since Open or the last
// successful Compact — the caller's compaction trigger.
func (s *Store) Appends() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.since
}

// Compact durably replaces the store's contents with snapshot: the
// snapshot is written to a temp file, fsync'd, atomically renamed into
// place, and only then is the log truncated. A failure between the rename
// and the truncate leaves records in the log that are already reflected in
// the snapshot; replay must tolerate the duplication (see package doc).
func (s *Store) Compact(snapshot []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if err := s.inj.Op("wal.compact"); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	dst := filepath.Join(s.dir, snapshotName)
	tmp, err := os.CreateTemp(s.dir, snapshotName+"-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if _, err := tmp.Write(snapshot); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The snapshot now owns all state; losing the log tail is safe, and a
	// crash before the truncate merely replays idempotent duplicates.
	if err := s.inj.Op("wal.truncate"); err != nil {
		return fmt.Errorf("wal: compact truncate: %w", err)
	}
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("wal: compact truncate: %w", err)
	}
	if _, err := s.log.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: compact truncate: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("wal: compact truncate: %w", err)
	}
	s.size, s.since, s.dirty = 0, 0, false
	return nil
}

// Close fsyncs unsynced appends and closes the log file. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	var err error
	if s.broken == nil {
		err = s.syncLocked()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }
