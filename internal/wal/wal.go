// Package wal is a minimal write-ahead log for the durable gwcached: one
// append-only file, wal.log, of length-prefixed, CRC32-C-framed records,
// from which a process rebuilds its in-memory state after a crash.
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
// Compact(records) frames the records into a temp file in the same
// directory, fsyncs it, renames it over wal.log (atomic on POSIX), fsyncs
// the directory so the rename itself is durable, and appends to the new
// file from then on. A crash at any point leaves one whole log: the old
// one before the rename, the new one after it. No record is replayed
// twice.
//
// All file operations consult an optional fault.Injector (points
// "wal.append", "wal.sync", "wal.compact" before the temp file is written,
// and "wal.rename" between its fsync and the rename), so crash and
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
	logName = "wal.log"
	// tmpName is the compaction's temp file, renamed over logName. A
	// crash can leave one behind; the next compaction truncates it.
	tmpName = logName + ".tmp"
	// oldSnapshotName is the file older builds compacted into, beside a
	// log that held only the records after it.
	oldSnapshotName = "snapshot"

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
	// Records are the log's intact records, in order.
	Records [][]byte
	// TornBytes is how many trailing bytes were discarded as a torn or
	// corrupt tail record; zero on a clean log.
	TornBytes int64
}

// Store is the log file rooted in one directory. It is safe for
// concurrent use; appends are serialized.
type Store struct {
	mu     sync.Mutex
	dir    string
	inj    *fault.Injector
	log    *os.File
	dirty  bool // appended records not yet fsync'd
	since  uint64
	broken error // a failed append left an unframed tail; the store is dead
}

// Open opens (creating if needed) the store in dir and scans it: the
// returned Recovered holds every intact log record, and the log file is
// truncated after the last intact record so new appends continue a
// well-framed stream. A directory holding an older build's snapshot file
// is refused: its log alone is only the tail of that state. inj may be
// nil.
func Open(dir string, inj *fault.Injector) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	old := filepath.Join(dir, oldSnapshotName)
	if _, err := os.Lstat(old); err == nil {
		return nil, nil, fmt.Errorf("wal: %s was written by an older build that kept its state in two files; move the directory away and start from a fresh one", old)
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
	rec := &Recovered{}
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
	return &Store{dir: dir, inj: inj, log: f}, rec, nil
}

func checkSize(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("wal: record size %d out of range", len(payload))
	}
	return nil
}

// Append writes one record; with sync it is also fsync'd before returning,
// making the record durable. An append that fails at the write level (a
// short write leaves an unframed tail on disk) marks the store broken —
// the in-memory state and the file have diverged and only a re-open, which
// discards the torn tail, can reconcile them. A failed fsync alone does
// not break the store: the frame is intact, and a later successful sync
// (or the retried, idempotent record) makes it durable.
func (s *Store) Append(payload []byte, sync bool) error {
	if err := checkSize(payload); err != nil {
		return err
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

// Compact durably replaces the log with records (see package doc). A
// failure before the rename leaves the old log in place and in use. Once
// the rename is done the store appends to the new log; if the directory
// fsync then fails, the rename may not survive a power cut, so the store
// is marked broken rather than let later appends land in a file a reboot
// could discard.
func (s *Store) Compact(records [][]byte) error {
	var buf []byte
	for _, r := range records {
		if err := checkSize(r); err != nil {
			return err
		}
		buf = AppendFrame(buf, r)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	if err := s.inj.Op("wal.compact"); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	tmp, err := os.OpenFile(filepath.Join(s.dir, tmpName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = s.inj.Op("wal.rename")
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(s.dir, logName))
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	s.log.Close()
	s.log, s.since, s.dirty = tmp, 0, false
	if err := syncDir(s.dir); err != nil {
		s.broken = fmt.Errorf("wal: compact: sync directory: %w", err)
		return s.broken
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
