// Package store is the disk-backed write-through verdict store of the
// serving tier: an append-only log of checksummed records plus an
// in-memory index, so a restarted replica answers every previously-settled
// canonical key without re-running an engine.
//
// The economics follow from the Main Theorem. Implication for template
// dependencies is undecidable, so a definitive verdict may have cost an
// arbitrarily large engine run — and, being definitive for a CANONICAL key
// class (internal/serve/canon), it is permanent: no future request in the
// class can ever be answered differently. A verdict is therefore the one
// artifact worth persisting forever, and losing the in-memory cache to a
// restart is the one cold-start cost a fleet can actually avoid. Unknown
// verdicts are different: they are honest budget reports, valid only as
// "this budget class could not settle it", so they are stored WITH their
// budget class and a strictly larger class overwrites them — on disk as in
// memory.
//
// Durability model, deliberately modest (stdlib only, no fsync):
//
//   - every Put appends one length-prefixed, CRC-checksummed record and
//     updates the index before returning, so a killed PROCESS loses
//     nothing that was Put (the OS page cache survives the process);
//   - a machine crash may tear the final record; Open detects the torn
//     tail by length/checksum, truncates it, and keeps every record before
//     it — recovery never invents data and never drops a clean prefix;
//   - a record mid-file that fails its checksum ends recovery at that
//     offset (append-only logs corrupt from the tail; a flipped byte
//     earlier means the file is not ours to guess about), again keeping
//     the clean prefix.
//
// Overwrites append a superseding record and deletions append a tombstone;
// the index keeps only the newest live record per key, and Compact
// rewrites the log with exactly the live records (temp file + rename, so a
// crash mid-compaction leaves the old log intact). Puts auto-compact once
// dead bytes exceed both a floor and the live size, keeping the log within
// ~2x of its live content.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"templatedep/internal/obs"
)

// magic opens every log file; a file that exists but does not start with
// it is refused rather than silently rewritten.
var magic = []byte("TDVSTOR1")

// recordHeaderLen is the per-record framing: a 4-byte little-endian
// payload length followed by the payload's CRC-32 (IEEE).
const recordHeaderLen = 8

// maxRecordLen bounds a single record payload. Certificates dominate
// record size and stay far below this; the bound exists so a corrupt
// length prefix cannot make recovery attempt a multi-gigabyte allocation.
const maxRecordLen = 64 << 20

// autoCompactFloor is the minimum dead-byte volume before a Put triggers
// compaction (compacting a tiny log is churn, not savings).
const autoCompactFloor = 256 << 10

// Record is one stored verdict. Verdict strings use the engine vocabulary
// ("implied", "finite-counterexample", "unknown").
type Record struct {
	// Key is the full canonical problem key (not the short digest) — the
	// index key, shared by every renamed/reordered variant of the problem.
	Key     string `json:"key"`
	Verdict string `json:"verdict,omitempty"`
	Winner  string `json:"winner,omitempty"`
	Stop    string `json:"stop,omitempty"`
	// ColdMS is the engine wall-clock of the run that produced the
	// verdict, echoed on store hits so clients see what the fleet saved.
	ColdMS float64 `json:"cold_ms,omitempty"`
	// Class is the resolved budget class of the run (meaningful for
	// "unknown" verdicts; see Supersedes).
	Class Class `json:"class,omitempty"`
	// Cert is the encoded verifiable certificate backing a definitive
	// verdict (may be empty for the rare definitive run whose certifying
	// replay ran out of budget).
	Cert json.RawMessage `json:"cert,omitempty"`
	// Deleted marks a tombstone: an appended "forget this key" record,
	// written by Delete so an eviction survives restart (recovery drops
	// the key; compaction drops the tombstone itself).
	Deleted bool `json:"deleted,omitempty"`
}

// Class is a budget class: the effective per-meter limits a run executed
// under. It mirrors budget.Limits without importing it — the store is a
// dumb durability layer and compares classes only for the overwrite rule.
type Class struct {
	Rounds int `json:"rounds,omitempty"`
	Tuples int `json:"tuples,omitempty"`
	Nodes  int `json:"nodes,omitempty"`
}

// Exceeds reports whether c exceeds d on any meter — the condition under
// which a run under c may settle what a run under d answered unknown.
func (c Class) Exceeds(d Class) bool {
	return c.Rounds > d.Rounds || c.Tuples > d.Tuples || c.Nodes > d.Nodes
}

// definitive reports whether the record's verdict is permanent.
func (r Record) definitive() bool {
	return r.Verdict == "implied" || r.Verdict == "finite-counterexample"
}

// Supersedes reports whether r should replace old for the same key:
// definitive beats unknown, a definitive record upgrades from certless to
// certified, and between unknowns a strictly larger budget class wins.
// A definitive record is never replaced by an unknown, and an equal-class
// unknown leaves the stored one in place (no churn on repeats).
func (r Record) Supersedes(old Record) bool {
	switch {
	case r.definitive() && !old.definitive():
		return true
	case r.definitive() && old.definitive():
		// Same verdict for the key either way (the canonical-key contract);
		// only rewrite to attach a certificate a prior run could not
		// produce.
		return len(old.Cert) == 0 && len(r.Cert) > 0
	case old.definitive():
		return false
	default:
		return r.Class.Exceeds(old.Class)
	}
}

// keyDigest is the short key form stamped on events, matching the serving
// layer's wire digests so one trace correlates across layers.
func keyDigest(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// Options configures Open.
type Options struct {
	// Sink receives the store's lifecycle events (store_recover,
	// store_put, store_compact); nil disables emission.
	Sink obs.Sink
	// NoAutoCompact disables the Put-triggered compaction heuristic;
	// Compact can still be called explicitly (tests pin compaction
	// behavior without racing the heuristic).
	NoAutoCompact bool
}

// Store is a disk-backed verdict store. Safe for concurrent use; events
// are emitted under the store lock, so they land in the sink in the order
// the mutations happened.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	opts Options

	index map[string]Record
	// liveBytes / deadBytes partition the log's record bytes (framing
	// included) into the newest record per key vs superseded ones.
	liveBytes int64
	deadBytes int64
	size      int64 // current file size (append offset)
	closed    bool
}

// RecoverStats reports what Open found on disk.
type RecoverStats struct {
	// Records is the number of live (indexed) records.
	Records int
	// Superseded is the number of log records skipped because a later
	// record for the same key superseded them (tombstones included).
	Superseded int
	// DroppedBytes is the torn/corrupt tail truncated from the log.
	DroppedBytes int64
}

// Open opens (or creates) the verdict store at path, replaying the log
// into the in-memory index and truncating any torn tail. The parent
// directory must exist.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, path: path, opts: opts, index: make(map[string]Record)}
	st, err := s.recover()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.emit(obs.Event{Type: obs.EvStoreRecover, N: st.Records,
		Added: st.Superseded, Bytes: int(st.DroppedBytes)})
	return s, nil
}

func (s *Store) emit(e obs.Event) {
	if s.opts.Sink == nil {
		return
	}
	e.Src = "store"
	s.opts.Sink.Event(e)
}

// recover replays the log. Called with the store not yet shared, so no
// locking.
func (s *Store) recover() (RecoverStats, error) {
	var st RecoverStats
	info, err := s.f.Stat()
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		// Fresh store: stamp the magic header.
		if _, err := s.f.Write(magic); err != nil {
			return st, fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
		return st, nil
	}
	// One buffered reader serves the whole scan, so a record costs no
	// syscalls of its own. It reads ahead of offset: the file position
	// is set back to offset after the scan.
	r := bufio.NewReaderSize(s.f, 64<<10)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr) != string(magic) {
		return st, fmt.Errorf("store: %s is not a verdict store (bad magic)", s.path)
	}
	// Scan records until EOF or the first frame that fails its length or
	// checksum — the torn tail. bytesAt tracks the framed size of each
	// key's newest record so superseded records count as dead immediately.
	offset := int64(len(magic))
	bytesAt := make(map[string]int64, 64)
	frame := make([]byte, recordHeaderLen)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, frame); err != nil {
			if err == io.EOF {
				break
			}
			if err == io.ErrUnexpectedEOF {
				st.DroppedBytes = info.Size() - offset
				break
			}
			return st, fmt.Errorf("store: %w", err)
		}
		plen := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if plen == 0 || plen > maxRecordLen || offset+recordHeaderLen+int64(plen) > info.Size() {
			st.DroppedBytes = info.Size() - offset
			break
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			st.DroppedBytes = info.Size() - offset
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			st.DroppedBytes = info.Size() - offset
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			st.DroppedBytes = info.Size() - offset
			break
		}
		recBytes := recordHeaderLen + int64(plen)
		if prevBytes, ok := bytesAt[rec.Key]; ok {
			// A later record for a seen key: the log's append order IS the
			// supersession order (Put appends only superseding records,
			// Delete only tombstones), so the earlier record is dead.
			s.deadBytes += prevBytes
			st.Superseded++
		}
		if rec.Deleted {
			// The tombstone itself is dead weight too; it only exists to
			// outlive the record it kills until the next compaction.
			delete(bytesAt, rec.Key)
			delete(s.index, rec.Key)
			s.deadBytes += recBytes
		} else {
			bytesAt[rec.Key] = recBytes
			s.index[rec.Key] = rec
		}
		offset += recBytes
	}
	if st.DroppedBytes > 0 {
		if err := s.f.Truncate(offset); err != nil {
			return st, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(offset, io.SeekStart); err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	s.size = offset
	for _, b := range bytesAt {
		s.liveBytes += b
	}
	st.Records = len(s.index)
	return st, nil
}

// Get returns the live record for key.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.index[key]
	return rec, ok
}

// append frames and writes one record payload, updating the size gauges.
// Caller holds the lock.
func (s *Store) append(rec Record) (int, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	frame := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[recordHeaderLen:], payload)
	if _, err := s.f.Write(frame); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.size += int64(len(frame))
	return len(frame), nil
}

// frameLen estimates the framed byte length of rec as stored (re-encoding;
// only used for dead/live accounting, where an estimate is fine).
func frameLen(rec Record) int64 {
	b, err := json.Marshal(rec)
	if err != nil {
		return 0
	}
	return recordHeaderLen + int64(len(b))
}

// Put writes rec through to disk if it supersedes the stored record for
// its key (or the key is new), updating the index before returning.
// Returns whether the record was written. A false return still leaves the
// caller's verdict answerable — the stored record it lost to answers at
// least as much.
func (s *Store) Put(rec Record) (bool, error) {
	if rec.Key == "" || rec.Deleted {
		return false, errors.New("store: invalid record")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("store: closed")
	}
	old, exists := s.index[rec.Key]
	if exists && !rec.Supersedes(old) {
		s.emit(obs.Event{Type: obs.EvStorePut, Key: keyDigest(rec.Key), Source: "skip"})
		return false, nil
	}
	n, err := s.append(rec)
	if err != nil {
		return false, err
	}
	if exists {
		b := frameLen(old)
		s.liveBytes -= b
		s.deadBytes += b
	}
	s.index[rec.Key] = rec
	s.liveBytes += int64(n)
	disposition := "insert"
	if exists {
		disposition = "overwrite"
	}
	s.emit(obs.Event{Type: obs.EvStorePut, Key: keyDigest(rec.Key),
		Source: disposition, Bytes: n})
	if !s.opts.NoAutoCompact && s.deadBytes > autoCompactFloor && s.deadBytes > s.liveBytes {
		return true, s.compactLocked()
	}
	return true, nil
}

// Delete removes key, appending a tombstone so the eviction survives a
// restart. Used when a stored certificate fails re-verification: the
// entry must not answer another request, this process or the next.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	rec, ok := s.index[key]
	if !ok {
		return nil
	}
	n, err := s.append(Record{Key: key, Deleted: true})
	if err != nil {
		return err
	}
	delete(s.index, key)
	b := frameLen(rec)
	s.liveBytes -= b
	s.deadBytes += b + int64(n)
	return nil
}

// Compact rewrites the log with exactly the live records (temp file +
// rename). A crash before the rename leaves the original log intact; a
// crash after it leaves the compacted log — either way Open recovers a
// consistent store.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	reclaimed := s.deadBytes
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	if _, err := tmp.Write(magic); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	size := int64(len(magic))
	for _, rec := range s.index {
		payload, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		frame := make([]byte, recordHeaderLen+len(payload))
		binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		copy(frame[recordHeaderLen:], payload)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	// Reopen the renamed file for appends; the old handle points at the
	// unlinked pre-compaction log.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	s.f.Close()
	s.f = f
	s.size = size
	s.liveBytes = size - int64(len(magic))
	s.deadBytes = 0
	s.emit(obs.Event{Type: obs.EvStoreCompact, N: len(s.index), Bytes: int(reclaimed)})
	return nil
}

// Stats is the store's gauge block.
type Stats struct {
	Records   int   `json:"records"`
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	FileBytes int64 `json:"file_bytes"`
}

// Stats snapshots the store gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Records: len(s.index), LiveBytes: s.liveBytes,
		DeadBytes: s.deadBytes, FileBytes: s.size}
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// Close releases the file (writes are unbuffered, so nothing to flush).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// DefaultPath returns the conventional store location under dir:
// dir/verdicts.log.
func DefaultPath(dir string) string { return filepath.Join(dir, "verdicts.log") }
