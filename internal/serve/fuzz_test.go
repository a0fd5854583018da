package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseRequest feeds arbitrary bytes through the /infer body path:
// decodeRequest, then ParseRequest. Neither may panic, and an accepted
// request must keep its canonical key across a JSON round trip of its Wire
// form, which is what a peer fill forwards to the key's owner. The seeds in
// testdata/fuzz/FuzzParseRequest are a preset, a presentation, a TD
// request, the Turing-machine body of testdata/tm-write-one.json,
// malformed bodies, and presets past their family's cap, which
// ParseRequest must refuse before building them.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		p, err := ParseRequest(req)
		if err != nil {
			return
		}
		wire, err := json.Marshal(p.Wire)
		if err != nil {
			t.Fatalf("marshal wire form: %v", err)
		}
		again, err := decodeRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("wire form %s does not decode: %v", wire, err)
		}
		q, err := ParseRequest(again)
		if err != nil {
			t.Fatalf("wire form %s does not parse: %v", wire, err)
		}
		if q.Key != p.Key || q.Mode != p.Mode || q.Limits != p.Limits {
			t.Fatalf("round trip changed the problem: key %q mode %s limits %+v, then key %q mode %s limits %+v",
				p.Key, p.Mode, p.Limits, q.Key, q.Mode, q.Limits)
		}
	})
}
