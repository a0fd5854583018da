package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"templatedep/internal/obs"
)

func tempStore(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	path := DefaultPath(t.TempDir())
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func mustPut(t *testing.T, s *Store, rec Record) {
	t.Helper()
	wrote, err := s.Put(rec)
	if err != nil {
		t.Fatalf("Put(%s): %v", rec.Key, err)
	}
	if !wrote {
		t.Fatalf("Put(%s): skipped, want written", rec.Key)
	}
}

func TestPutGetSupersession(t *testing.T) {
	s, _ := tempStore(t, Options{NoAutoCompact: true})

	// An unknown verdict carries its budget class.
	small := Class{Rounds: 4, Tuples: 100}
	mustPut(t, s, Record{Key: "k1", Verdict: "unknown", Stop: "exhausted:rounds", Class: small})

	// A repeat at the same class is a skip — nothing new to say.
	wrote, err := s.Put(Record{Key: "k1", Verdict: "unknown", Class: small})
	if err != nil || wrote {
		t.Fatalf("equal-class unknown re-put: wrote=%v err=%v, want skip", wrote, err)
	}

	// A strictly larger class overwrites.
	big := Class{Rounds: 16, Tuples: 100}
	mustPut(t, s, Record{Key: "k1", Verdict: "unknown", Class: big})
	got, ok := s.Get("k1")
	if !ok || got.Class != big {
		t.Fatalf("Get after class upgrade: %+v ok=%v", got, ok)
	}

	// A definitive verdict beats any unknown, and is never demoted back.
	mustPut(t, s, Record{Key: "k1", Verdict: "implied", Winner: "chase",
		Cert: json.RawMessage(`{"v":1}`)})
	wrote, err = s.Put(Record{Key: "k1", Verdict: "unknown", Class: Class{Rounds: 99, Tuples: 99, Nodes: 99}})
	if err != nil || wrote {
		t.Fatalf("unknown over definitive: wrote=%v err=%v, want skip", wrote, err)
	}
	got, _ = s.Get("k1")
	if got.Verdict != "implied" || len(got.Cert) == 0 {
		t.Fatalf("definitive record lost: %+v", got)
	}

	// A certless definitive record upgrades to a certified one, once.
	mustPut(t, s, Record{Key: "k2", Verdict: "finite-counterexample"})
	mustPut(t, s, Record{Key: "k2", Verdict: "finite-counterexample",
		Cert: json.RawMessage(`{"v":1,"kind":"finite-model"}`)})
	wrote, _ = s.Put(Record{Key: "k2", Verdict: "finite-counterexample",
		Cert: json.RawMessage(`{"v":2}`)})
	if wrote {
		t.Fatalf("certified definitive must not be rewritten again")
	}
}

// TestReopenRebuildsIndex is the restart-warm property: every live record
// survives a clean close and reopen, including class-upgraded unknowns
// (the upgrade must persist, not the first write).
func TestReopenRebuildsIndex(t *testing.T) {
	s, path := tempStore(t, Options{NoAutoCompact: true})
	mustPut(t, s, Record{Key: "def", Verdict: "implied", Winner: "chase",
		ColdMS: 12.5, Cert: json.RawMessage(`{"v":1}`)})
	mustPut(t, s, Record{Key: "unk", Verdict: "unknown", Stop: "exhausted:tuples",
		Class: Class{Rounds: 4, Tuples: 100}})
	mustPut(t, s, Record{Key: "unk", Verdict: "unknown", Stop: "exhausted:rounds",
		Class: Class{Rounds: 32, Tuples: 100}})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	counters := obs.NewCounters()
	s2, err := Open(path, Options{Sink: obs.NewCounterSink(counters), NoAutoCompact: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopen: %d records, want 2", s2.Len())
	}
	def, ok := s2.Get("def")
	if !ok || def.Verdict != "implied" || def.Winner != "chase" || def.ColdMS != 12.5 || len(def.Cert) == 0 {
		t.Fatalf("definitive record did not survive reopen: %+v ok=%v", def, ok)
	}
	unk, ok := s2.Get("unk")
	if !ok || (unk.Class != Class{Rounds: 32, Tuples: 100}) {
		t.Fatalf("class-upgraded unknown did not persist: %+v ok=%v", unk, ok)
	}
	if got := counters.Get("store.recovered_records"); got != 2 {
		t.Fatalf("store.recovered_records = %d, want 2", got)
	}
	if got := counters.Get("store.superseded_records"); got != 1 {
		t.Fatalf("store.superseded_records = %d, want 1 (the pre-upgrade unknown)", got)
	}
	if got := counters.Get("store.dropped_bytes"); got != 0 {
		t.Fatalf("clean log dropped %d bytes on recovery", got)
	}
}

// TestTornTailRecovery is the crash property: a log truncated mid-record
// reopens with every complete record intact and the torn tail dropped.
func TestTornTailRecovery(t *testing.T) {
	s, path := tempStore(t, Options{NoAutoCompact: true})
	mustPut(t, s, Record{Key: "a", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	mustPut(t, s, Record{Key: "b", Verdict: "finite-counterexample", Cert: json.RawMessage(`{"v":1}`)})
	sizeBefore := s.Stats().FileBytes
	mustPut(t, s, Record{Key: "victim", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	s.Close()

	// Tear the final record: keep its header and half its payload, as a
	// crash mid-write would.
	torn := sizeBefore + recordHeaderLen + 10
	if err := os.Truncate(path, torn); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	counters := obs.NewCounters()
	s2, err := Open(path, Options{Sink: obs.NewCounterSink(counters), NoAutoCompact: true})
	if err != nil {
		t.Fatalf("reopen torn log: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("torn reopen: %d records, want 2", s2.Len())
	}
	if _, ok := s2.Get("victim"); ok {
		t.Fatalf("torn record resurrected")
	}
	for _, k := range []string{"a", "b"} {
		if rec, ok := s2.Get(k); !ok || !rec.definitive() {
			t.Fatalf("complete record %q lost in torn-tail recovery", k)
		}
	}
	if got := counters.Get("store.dropped_bytes"); got != recordHeaderLen+10 {
		t.Fatalf("store.dropped_bytes = %d, want %d", got, recordHeaderLen+10)
	}
	// The file itself was truncated back to the clean prefix, so appends
	// land on a record boundary: a new put and reopen must both work.
	mustPut(t, s2, Record{Key: "c", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	s2.Close()
	s3, err := Open(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Fatalf("after post-tear append: %d records, want 3", s3.Len())
	}
}

// TestCorruptRecordEndsRecovery: a flipped byte mid-file fails that
// record's checksum; recovery keeps the clean prefix and truncates there.
func TestCorruptRecordEndsRecovery(t *testing.T) {
	s, path := tempStore(t, Options{NoAutoCompact: true})
	mustPut(t, s, Record{Key: "keep", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	cut := s.Stats().FileBytes
	mustPut(t, s, Record{Key: "corrupt", Verdict: "implied"})
	mustPut(t, s, Record{Key: "after", Verdict: "implied"})
	s.Close()

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the "corrupt" record.
	if _, err := f.WriteAt([]byte{'X'}, cut+recordHeaderLen+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("reopen corrupt log: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("corrupt reopen: %d records, want 1", s2.Len())
	}
	if _, ok := s2.Get("keep"); !ok {
		t.Fatalf("clean prefix record lost")
	}
	if _, ok := s2.Get("after"); ok {
		t.Fatalf("record after corruption must not be trusted")
	}
}

func TestDeleteTombstoneSurvivesReopen(t *testing.T) {
	s, path := tempStore(t, Options{NoAutoCompact: true})
	mustPut(t, s, Record{Key: "bad", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	mustPut(t, s, Record{Key: "good", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	if err := s.Delete("bad"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok := s.Get("bad"); ok {
		t.Fatalf("deleted key still answers")
	}
	s.Close()

	s2, err := Open(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, ok := s2.Get("bad"); ok {
		t.Fatalf("tombstoned key resurrected on reopen")
	}
	if _, ok := s2.Get("good"); !ok {
		t.Fatalf("unrelated key lost")
	}

	// Deleting and re-putting works: the tombstone does not shadow a
	// later record.
	mustPut(t, s2, Record{Key: "bad", Verdict: "finite-counterexample", Cert: json.RawMessage(`{"v":2}`)})
	s2.Close()
	s3, err := Open(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec, ok := s3.Get("bad"); !ok || rec.Verdict != "finite-counterexample" {
		t.Fatalf("re-put after tombstone did not persist: %+v ok=%v", rec, ok)
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	counters := obs.NewCounters()
	s, path := tempStore(t, Options{Sink: obs.NewCounterSink(counters), NoAutoCompact: true})
	// Churn one key through many class upgrades and delete another —
	// plenty of dead log weight.
	for i := 1; i <= 20; i++ {
		mustPut(t, s, Record{Key: "churn", Verdict: "unknown", Class: Class{Rounds: i}})
	}
	mustPut(t, s, Record{Key: "gone", Verdict: "unknown", Class: Class{Rounds: 1}})
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, Record{Key: "stay", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})

	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatalf("test setup produced no dead bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 {
		t.Fatalf("dead bytes after compaction: %d", after.DeadBytes)
	}
	if after.FileBytes >= before.FileBytes {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before.FileBytes, after.FileBytes)
	}
	if after.Records != 2 {
		t.Fatalf("compaction changed live records: %d, want 2", after.Records)
	}
	if counters.Get("store.compactions") != 1 || counters.Get("store.reclaimed_bytes") == 0 {
		t.Fatalf("compaction counters: %v", counters.Snapshot())
	}

	// The compacted log still appends and reopens cleanly.
	mustPut(t, s, Record{Key: "post", Verdict: "implied", Cert: json.RawMessage(`{"v":1}`)})
	s.Close()
	s2, err := Open(path, Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("reopen compacted log: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("compacted reopen: %d records, want 3", s2.Len())
	}
	if rec, _ := s2.Get("churn"); (rec.Class != Class{Rounds: 20}) {
		t.Fatalf("highest class lost in compaction: %+v", rec)
	}
	if _, ok := s2.Get("gone"); ok {
		t.Fatalf("tombstoned key resurrected by compaction")
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	s, _ := tempStore(t, Options{})
	// Churn a fat record (payload padding via the cert) until dead bytes
	// cross the floor; auto-compaction must kick in on its own.
	pad := make([]byte, 8192)
	for i := range pad {
		pad[i] = 'a'
	}
	cert, _ := json.Marshal(map[string]string{"pad": string(pad)})
	for i := 1; i <= 80; i++ {
		mustPut(t, s, Record{Key: "fat", Verdict: "unknown", Class: Class{Rounds: i},
			Cert: cert})
	}
	st := s.Stats()
	if st.DeadBytes > autoCompactFloor && st.DeadBytes > st.LiveBytes {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
}

func TestOpenRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("just some text, definitely not a verdict log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path, Options{}); err == nil {
		s.Close()
		t.Fatalf("Open accepted a non-store file")
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s, _ := tempStore(t, Options{})
	mustPut(t, s, Record{Key: "k", Verdict: "implied"})
	s.Close()
	if _, err := s.Put(Record{Key: "k2", Verdict: "implied"}); err == nil {
		t.Fatalf("Put on closed store succeeded")
	}
	if err := s.Delete("k"); err == nil {
		t.Fatalf("Delete on closed store succeeded")
	}
	// Get still answers from the in-memory index (read-only after close).
	if _, ok := s.Get("k"); !ok {
		t.Fatalf("Get after close lost the index")
	}
}
