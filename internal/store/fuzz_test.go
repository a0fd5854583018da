package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"templatedep/internal/obs"
)

// recoverSink records the store_recover event's dropped-byte count.
type recoverSink struct{ dropped int }

func (r *recoverSink) Event(e obs.Event) {
	if e.Type == obs.EvStoreRecover {
		r.dropped = e.Bytes
	}
}

// scanLog is the test's own reading of a log body (the bytes after the
// magic header): frames are taken in order until the first whose length
// is out of range, whose CRC fails, or whose payload is not a keyed
// record, and each accepted record supersedes its key's earlier one, a
// tombstone deleting it. It returns the index that leaves and the length
// of the accepted prefix.
func scanLog(body []byte) (map[string]Record, int) {
	index := map[string]Record{}
	off := 0
	for off+recordHeaderLen <= len(body) {
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		sum := binary.LittleEndian.Uint32(body[off+4:])
		if plen == 0 || plen > maxRecordLen || off+recordHeaderLen+plen > len(body) {
			break
		}
		payload := body[off+recordHeaderLen : off+recordHeaderLen+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil || rec.Key == "" {
			break
		}
		if rec.Deleted {
			delete(index, rec.Key)
		} else {
			index[rec.Key] = rec
		}
		off += recordHeaderLen + plen
	}
	return index, off
}

// FuzzRecover writes the magic header and arbitrary bytes as a log and
// opens it. Open must not panic or fail; its index must be exactly what
// the test's own scan of CRC-accepted frames yields, with the file cut to
// the accepted prefix; and reopening must recover the same index with no
// bytes dropped. The seeds in testdata/fuzz/FuzzRecover are a valid log,
// a torn tail, a bad CRC, a zero-length frame and a tombstone.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "verdicts.log")
		if err := os.WriteFile(path, append(append([]byte{}, magic...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, accepted := scanLog(body)
		sink := &recoverSink{}
		s, err := Open(path, Options{Sink: sink, NoAutoCompact: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if !reflect.DeepEqual(s.index, want) {
			t.Fatalf("recovered index %v, the frames' CRCs accept %v", s.index, want)
		}
		st := s.Stats()
		if st.FileBytes != int64(len(magic)+accepted) || sink.dropped != len(body)-accepted {
			t.Fatalf("log cut to %d bytes with %d dropped; the accepted frames end at %d of %d",
				st.FileBytes, sink.dropped, len(magic)+accepted, len(magic)+len(body))
		}
		if st.LiveBytes+st.DeadBytes != int64(accepted) {
			t.Fatalf("live %d + dead %d bytes, the accepted frames hold %d", st.LiveBytes, st.DeadBytes, accepted)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		again := &recoverSink{}
		s, err = Open(path, Options{Sink: again, NoAutoCompact: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if !reflect.DeepEqual(s.index, want) || again.dropped != 0 {
			t.Fatalf("reopen recovered %d records with %d bytes dropped, want %d records and none",
				len(s.index), again.dropped, len(want))
		}
	})
}
