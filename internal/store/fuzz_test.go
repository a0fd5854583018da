package store

import (
	"bytes"
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

// scanLog is the test's own reading of a TDVSTOR1 log body (the bytes
// after the magic header): frames are taken in order until the first
// whose length is out of range, whose CRC fails, or whose payload is not
// a keyed record, and each accepted record supersedes its key's earlier
// one, a tombstone deleting it. It returns the index that leaves and the
// length of the accepted prefix.
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

// scanLogV2 is the test's own reading of a TDVSTOR2 log body. Frames are
// taken in order until the first whose length is out of range, whose CRC
// fails, or whose payload's binary prefix is malformed: a key length that
// is zero, not a uvarint or past the payload; a flag byte missing or
// with a bit other than the tombstone's; a metadata length that is not a
// uvarint or past the payload; or a tombstone with bytes after its zero
// metadata length. Each accepted record supersedes its key's earlier one,
// a tombstone deleting it. It returns the framed length of each live
// key's record, the Record Get must return for each live key whose
// metadata is JSON, and the length of the accepted prefix.
func scanLogV2(body []byte) (live map[string]int, records map[string]Record, accepted int) {
	type value struct{ meta, cert []byte }
	values := map[string]value{}
	live = map[string]int{}
	off := 0
	for off+recordHeaderLen <= len(body) {
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		sum := binary.LittleEndian.Uint32(body[off+4:])
		if plen == 0 || plen > maxRecordLen || off+recordHeaderLen+plen > len(body) {
			break
		}
		p := body[off+recordHeaderLen : off+recordHeaderLen+plen]
		if crc32.ChecksumIEEE(p) != sum {
			break
		}
		klen, n := binary.Uvarint(p)
		if n <= 0 || klen == 0 || klen > uint64(len(p)-n) {
			break
		}
		key, p := string(p[n:n+int(klen)]), p[n+int(klen):]
		if len(p) == 0 || p[0] > 1 {
			break
		}
		tombstone := p[0] == 1
		mlen, n := binary.Uvarint(p[1:])
		if n <= 0 || mlen > uint64(len(p)-1-n) {
			break
		}
		p = p[1+n:]
		if tombstone && len(p) > 0 {
			break
		}
		if tombstone {
			delete(values, key)
			delete(live, key)
		} else {
			values[key] = value{meta: p[:mlen], cert: p[mlen:]}
			live[key] = recordHeaderLen + plen
		}
		off += recordHeaderLen + plen
	}
	records = map[string]Record{}
	for key, v := range values {
		var m meta
		if json.Unmarshal(v.meta, &m) != nil {
			continue
		}
		rec := Record{Key: key, Verdict: m.Verdict, Winner: m.Winner, Stop: m.Stop,
			ColdMS: m.ColdMS, Class: m.Class}
		if len(v.cert) > 0 {
			rec.Cert = v.cert
		}
		records[key] = rec
	}
	return live, records, off
}

// records reads every live key of s through Get, leaving out the keys Get
// reports absent.
func records(s *Store) map[string]Record {
	got := map[string]Record{}
	for key := range s.index {
		if rec, ok := s.Get(key); ok {
			got[key] = rec
		}
	}
	return got
}

// FuzzRecover writes a magic header (TDVSTOR2 when v2 is set, TDVSTOR1
// otherwise) and arbitrary bytes as a log and opens it. Open must not
// panic or fail, and Get must return exactly the records the test's own
// scan of the accepted frames yields (scanLogV2 or scanLog). A TDVSTOR2
// log is cut to the accepted prefix, whose bytes the live and dead gauges
// partition; a TDVSTOR1 log is rewritten as TDVSTOR2 holding only the
// live records. Either way the dropped bytes are what follows the
// accepted prefix, and reopening must recover the same records with no
// bytes dropped. The seeds in testdata/fuzz/FuzzRecover are, for each
// format, a valid log, a torn tail, a bad CRC, a zero-length frame and a
// tombstone, plus a TDVSTOR2 frame whose key length runs past its
// payload.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, v2 bool) {
		header := magicV1
		if v2 {
			header = magic
		}
		path := filepath.Join(t.TempDir(), "verdicts.log")
		if err := os.WriteFile(path, append(append([]byte{}, header...), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var live map[string]int
		var want map[string]Record
		var accepted int
		if v2 {
			live, want, accepted = scanLogV2(body)
		} else {
			want, accepted = scanLog(body)
		}
		sink := &recoverSink{}
		s, err := Open(path, Options{Sink: sink, NoAutoCompact: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got := records(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Get returns %v, the accepted frames hold %v", got, want)
		}
		if sink.dropped != len(body)-accepted {
			t.Fatalf("%d bytes dropped; the accepted frames end at %d of %d",
				sink.dropped, len(magic)+accepted, len(magic)+len(body))
		}
		st := s.Stats()
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, magic) || st.FileBytes != int64(len(file)) {
			t.Fatalf("the log holds %d bytes starting %q, the store counts %d",
				len(file), file[:min(len(file), len(magic))], st.FileBytes)
		}
		if v2 {
			liveBytes := 0
			for _, n := range live {
				liveBytes += n
			}
			if len(s.index) != len(live) || st.FileBytes != int64(len(magic)+accepted) ||
				st.LiveBytes != int64(liveBytes) || st.LiveBytes+st.DeadBytes != int64(accepted) {
				t.Fatalf("%d records in %d bytes (live %d, dead %d); the accepted frames hold %d records in %d bytes, %d of them live",
					len(s.index), st.FileBytes, st.LiveBytes, st.DeadBytes, len(live), len(magic)+accepted, liveBytes)
			}
		} else if len(s.index) != len(want) || st.LiveBytes != st.FileBytes-int64(len(magic)) || st.DeadBytes != 0 {
			t.Fatalf("the rewritten log holds %d records in %d bytes (live %d, dead %d), want %d records, all live",
				len(s.index), st.FileBytes, st.LiveBytes, st.DeadBytes, len(want))
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
		if got := records(s); !reflect.DeepEqual(got, want) || again.dropped != 0 {
			t.Fatalf("reopen recovered %d records with %d bytes dropped, want %d records and none",
				len(got), again.dropped, len(want))
		}
	})
}
