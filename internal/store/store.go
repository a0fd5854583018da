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
//
// The log format is TDVSTOR2: the 8-byte magic, then per record a 4-byte
// little-endian payload length, the payload's CRC-32 (IEEE), and the
// payload — a uvarint key length, the key, one flag byte (bit 0 marks a
// tombstone), a uvarint metadata length, the metadata (the Record's
// verdict, winner, stop, cold time and class as JSON), and the certificate
// bytes verbatim. Recovery checks each frame's length and checksum and
// parses only that binary prefix, so opening a log decodes no JSON: the
// index keeps each live key's value bytes, Get decodes a record's small
// metadata when it is asked for, and Put, Delete and Compact write frames
// without re-encoding a certificate. A TDVSTOR1 log (one JSON Record per
// payload, as earlier versions wrote) is read with a JSON decoder and
// rewritten as TDVSTOR2 by the same temp-file + rename compaction before
// Open returns.
package store

import (
	"bufio"
	"bytes"
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

// magic opens every log file this package writes; a file that exists but
// starts with neither it nor magicV1 is refused rather than silently
// rewritten.
var magic = []byte("TDVSTOR2")

// magicV1 opens a log of the earlier format, whose payloads are JSON
// Records. Open reads one and rewrites it as TDVSTOR2.
var magicV1 = []byte("TDVSTOR1")

// flagTombstone is the payload flag bit of a tombstone; no other bit is
// defined.
const flagTombstone = 1

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

// meta is a record's metadata as a TDVSTOR2 payload holds it: the Record
// without its key, certificate and tombstone flag.
type meta struct {
	Verdict string  `json:"verdict,omitempty"`
	Winner  string  `json:"winner,omitempty"`
	Stop    string  `json:"stop,omitempty"`
	ColdMS  float64 `json:"cold_ms,omitempty"`
	Class   Class   `json:"class,omitempty"`
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

// entry is one live record in the index.
type entry struct {
	// val is the record's value: the metadata JSON, then the certificate.
	val []byte
	// meta is the length of val's metadata prefix.
	meta int
	// frame is the record's framed length in the log.
	frame int64
}

// newEntry builds rec's entry; frame is set when the frame is written.
func newEntry(rec Record) (entry, error) {
	m, err := json.Marshal(meta{Verdict: rec.Verdict, Winner: rec.Winner,
		Stop: rec.Stop, ColdMS: rec.ColdMS, Class: rec.Class})
	if err != nil {
		return entry{}, fmt.Errorf("store: %w", err)
	}
	val := make([]byte, 0, len(m)+len(rec.Cert))
	return entry{val: append(append(val, m...), rec.Cert...), meta: len(m)}, nil
}

// record decodes e as key's Record. It reports false when the metadata is
// not JSON: such a record answers nothing, and any Put for its key
// replaces it. The certificate is returned as stored, unscanned.
func (e entry) record(key string) (Record, bool) {
	var m meta
	if json.Unmarshal(e.val[:e.meta], &m) != nil {
		return Record{}, false
	}
	rec := Record{Key: key, Verdict: m.Verdict, Winner: m.Winner, Stop: m.Stop,
		ColdMS: m.ColdMS, Class: m.Class}
	if len(e.val) > e.meta {
		rec.Cert = e.val[e.meta:len(e.val):len(e.val)]
	}
	return rec, true
}

// appendFrame appends key's framed record to buf: the length and CRC
// header, then the payload of key, flag, metadata length and val.
func appendFrame(buf []byte, key string, flag byte, e entry) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, recordHeaderLen)...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = append(buf, flag)
	buf = binary.AppendUvarint(buf, uint64(e.meta))
	buf = append(buf, e.val...)
	payload := buf[start+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeRecord parses a TDVSTOR2 payload's binary prefix. It reports
// false for an empty key, a key or metadata length past the payload, an
// unknown flag bit, or a tombstone that carries a value.
func decodeRecord(payload []byte) (key string, e entry, deleted, ok bool) {
	klen, n := binary.Uvarint(payload)
	if n <= 0 || klen == 0 || klen > uint64(len(payload)-n) {
		return "", entry{}, false, false
	}
	rest := payload[n+int(klen):]
	if len(rest) == 0 || rest[0]&^flagTombstone != 0 {
		return "", entry{}, false, false
	}
	deleted = rest[0] == flagTombstone
	mlen, m := binary.Uvarint(rest[1:])
	if m <= 0 || mlen > uint64(len(rest)-1-m) {
		return "", entry{}, false, false
	}
	val := rest[1+m:]
	if deleted && len(val) > 0 {
		return "", entry{}, false, false
	}
	key = string(payload[n : n+int(klen)])
	if deleted {
		return key, entry{}, true, true
	}
	return key, entry{val: bytes.Clone(val), meta: int(mlen)}, false, true
}

// decodeRecordV1 parses a TDVSTOR1 payload, one JSON Record. It reports
// false when the payload is not a keyed Record.
func decodeRecordV1(payload []byte) (key string, e entry, deleted, ok bool) {
	var rec Record
	if json.Unmarshal(payload, &rec) != nil || rec.Key == "" {
		return "", entry{}, false, false
	}
	if rec.Deleted {
		return rec.Key, entry{}, true, true
	}
	e, err := newEntry(rec)
	return rec.Key, e, false, err == nil
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

	index map[string]entry
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
// into the in-memory index and truncating any torn tail. A TDVSTOR1 log is
// rewritten as TDVSTOR2 before Open returns; if that fails, the old log is
// left as it was. The parent directory must exist.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, path: path, opts: opts, index: make(map[string]entry)}
	st, v1, err := s.recover()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.emit(obs.Event{Type: obs.EvStoreRecover, N: st.Records,
		Added: st.Superseded, Bytes: int(st.DroppedBytes)})
	if v1 {
		if err := s.compactLocked(); err != nil {
			s.f.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) emit(e obs.Event) {
	if s.opts.Sink == nil {
		return
	}
	e.Src = "store"
	s.opts.Sink.Event(e)
}

// recover replays the log into the index, and reports whether it is a
// TDVSTOR1 log, which Open then rewrites. Called with the store not yet
// shared, so no locking.
func (s *Store) recover() (RecoverStats, bool, error) {
	var st RecoverStats
	info, err := s.f.Stat()
	if err != nil {
		return st, false, fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		// Fresh store: stamp the magic header.
		if _, err := s.f.Write(magic); err != nil {
			return st, false, fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
		return st, false, nil
	}
	// One buffered reader serves the whole scan, so a record costs no
	// syscalls of its own. It reads ahead of offset: the file position
	// is set back to offset after the scan.
	r := bufio.NewReaderSize(s.f, 64<<10)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return st, false, fmt.Errorf("store: %s is not a verdict store (bad magic)", s.path)
	}
	decode := decodeRecord
	v1 := string(hdr) == string(magicV1)
	if v1 {
		decode = decodeRecordV1
	} else if string(hdr) != string(magic) {
		return st, false, fmt.Errorf("store: %s is not a verdict store (bad magic)", s.path)
	}
	// Scan records until EOF or the first frame that fails its length,
	// checksum or decoding — the torn tail. A later record for a seen key
	// supersedes it: the log's append order IS the supersession order (Put
	// appends only superseding records, Delete only tombstones).
	offset := int64(len(magic))
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
			return st, false, fmt.Errorf("store: %w", err)
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
		key, e, deleted, ok := decode(payload)
		if !ok {
			st.DroppedBytes = info.Size() - offset
			break
		}
		e.frame = recordHeaderLen + int64(plen)
		if prev, ok := s.index[key]; ok {
			s.liveBytes -= prev.frame
			s.deadBytes += prev.frame
			st.Superseded++
		}
		if deleted {
			// The tombstone itself is dead weight too; it only exists to
			// outlive the record it kills until the next compaction.
			delete(s.index, key)
			s.deadBytes += e.frame
		} else {
			s.index[key] = e
			s.liveBytes += e.frame
		}
		offset += e.frame
	}
	st.Records = len(s.index)
	if v1 {
		// Open's rewrite replaces the whole file, torn tail included.
		return st, true, nil
	}
	if st.DroppedBytes > 0 {
		if err := s.f.Truncate(offset); err != nil {
			return st, false, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if _, err := s.f.Seek(offset, io.SeekStart); err != nil {
		return st, false, fmt.Errorf("store: %w", err)
	}
	s.size = offset
	return st, false, nil
}

// Get returns the live record for key. A record whose metadata does not
// decode is reported absent. The returned Cert shares the index's bytes
// and must not be modified.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	e, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return Record{}, false
	}
	// An entry's bytes are never written after it is indexed, so the
	// decode needs no lock.
	return e.record(key)
}

// append frames and writes one record, updating the size gauge, and
// returns the frame's length. Caller holds the lock.
func (s *Store) append(key string, flag byte, e entry) (int64, error) {
	frame := appendFrame(nil, key, flag, e)
	if _, err := s.f.Write(frame); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	s.size += int64(len(frame))
	return int64(len(frame)), nil
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
	e, err := newEntry(rec)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("store: closed")
	}
	old, exists := s.index[rec.Key]
	if exists {
		// A stored record whose metadata does not decode answers nothing,
		// so any record supersedes it.
		if prev, ok := old.record(rec.Key); ok && !rec.Supersedes(prev) {
			s.emit(obs.Event{Type: obs.EvStorePut, Key: keyDigest(rec.Key), Source: "skip"})
			return false, nil
		}
	}
	if e.frame, err = s.append(rec.Key, 0, e); err != nil {
		return false, err
	}
	if exists {
		s.liveBytes -= old.frame
		s.deadBytes += old.frame
	}
	s.index[rec.Key] = e
	s.liveBytes += e.frame
	disposition := "insert"
	if exists {
		disposition = "overwrite"
	}
	s.emit(obs.Event{Type: obs.EvStorePut, Key: keyDigest(rec.Key),
		Source: disposition, Bytes: int(e.frame)})
	if !s.opts.NoAutoCompact && s.deadBytes > autoCompactFloor && s.deadBytes > s.liveBytes {
		return true, s.compactLocked()
	}
	return true, nil
}

// Delete removes key, appending a tombstone so the eviction survives a
// restart. Used when a stored record does not decode or its certificate
// fails re-verification: the entry must not answer another request, this
// process or the next.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	e, ok := s.index[key]
	if !ok {
		return nil
	}
	n, err := s.append(key, flagTombstone, entry{})
	if err != nil {
		return err
	}
	delete(s.index, key)
	s.liveBytes -= e.frame
	s.deadBytes += e.frame + n
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
	// The rewritten entries carry their new frame lengths; they replace
	// the index only once the new log is in place.
	index := make(map[string]entry, len(s.index))
	w := bufio.NewWriterSize(tmp, 64<<10)
	w.Write(magic) // a write error sticks to w and surfaces at Flush
	size := int64(len(magic))
	var frame []byte
	for key, e := range s.index {
		frame = appendFrame(frame[:0], key, 0, e)
		w.Write(frame)
		e.frame = int64(len(frame))
		index[key] = e
		size += e.frame
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
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
	s.index = index
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
