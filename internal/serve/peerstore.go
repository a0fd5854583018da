package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/store"
)

// This file is the server's sharded/persistent tier: the disk-backed
// verdict store (restart-warm hits, write-through puts) and consistent-hash
// peer fill (a local miss whose canonical key another replica owns is
// forwarded there, and its answer adopted only after the certificate it
// returns is re-verified HERE, against OUR parse of the problem the
// certificate itself embeds). The leader's full lookup ladder is
// cache → store → peer → engine; every rung below the cache runs inside
// the singleflight, so concurrent identical requests cost one store read,
// one peer round trip, or one engine run — never N.

// peerFillHeader marks a forwarded peer-fill request. An owner answering
// one never forwards again, whatever its own ring says — two replicas with
// disagreeing peer lists must degrade to local computes, not ping-pong a
// request between each other.
const peerFillHeader = "X-TD-Peer-Fill"

// recordOf converts a cached verdict into its durable form.
func recordOf(key string, v CachedVerdict) store.Record {
	rec := store.Record{
		Key:     key,
		Verdict: v.Verdict.String(),
		Winner:  v.Winner,
		Stop:    v.Stop,
		ColdMS:  v.ColdMS,
		Class:   v.Class,
	}
	if v.Cert != nil && v.CertOK {
		if b, err := json.Marshal(v.Cert); err == nil {
			rec.Cert = b
		}
	}
	return rec
}

// verdictOf converts a durable record back into a cacheable verdict. The
// certificate is decoded but NOT yet trusted: CertOK stays false, so the
// store-hit path (and, failing that, the cache-hit path) re-verifies it
// before the verdict is replayed — a restart answers from disk, but never
// on the dead process's say-so alone.
func verdictOf(rec store.Record) (CachedVerdict, bool) {
	var vd core.Verdict
	if err := vd.UnmarshalText([]byte(rec.Verdict)); err != nil {
		return CachedVerdict{}, false
	}
	v := CachedVerdict{
		Verdict: vd,
		Winner:  rec.Winner,
		Stop:    rec.Stop,
		ColdMS:  rec.ColdMS,
		Class:   rec.Class,
	}
	if len(rec.Cert) > 0 {
		var c cert.Certificate
		if err := json.Unmarshal(rec.Cert, &c); err != nil {
			return CachedVerdict{}, false
		}
		v.Cert = &c
	}
	return v, true
}

// storeGet answers a leader's miss from the disk store when it can: a
// record that passes admit, and, if it is unknown, whose budget class
// covers this request's. A record that does not decode, or fails admit, is
// tombstoned and the request runs cold — disk content is an input here,
// not an authority.
func (s *Server) storeGet(p *Problem, sink obs.Sink) (CachedVerdict, bool) {
	if s.cfg.Store == nil {
		return CachedVerdict{}, false
	}
	rec, ok := s.cfg.Store.Get(p.Key)
	if !ok {
		return CachedVerdict{}, false
	}
	v, ok := verdictOf(rec)
	if !ok {
		s.cfg.Store.Delete(p.Key)
		return CachedVerdict{}, false
	}
	if v.Verdict == core.Unknown && s.requestClass(p).Exceeds(v.Class) {
		// This request's budget exceeds the class the stored unknown was
		// computed under — a live run may settle it (and will overwrite
		// the record through the write-through path).
		return CachedVerdict{}, false
	}
	err := admit(p, v)
	certChecked(sink, p, v.Cert, err)
	if err != nil {
		s.cfg.Store.Delete(p.Key)
		return CachedVerdict{}, false
	}
	v.CertOK = v.Cert != nil
	sink.Event(obs.Event{Type: obs.EvServeStoreHit, Src: "serve", Key: p.Hash})
	return v, true
}

// admit is the one rule a verdict must pass before this replica answers
// p with it, whether it comes from the disk store, from a peer, or (for
// its certificate) from the engines: an unknown verdict carries no
// certificate; a definitive one carries a certificate of that verdict,
// and the certificate proves it for p's problem. When the certificate
// embeds p's own problem (embedsRequest), its payload is checked against
// p's parse, with no re-parse and no canonicalization. Otherwise the
// embedded problem is parsed and canonicalized, must land on p's key, and
// the payload is checked against that parse: a certificate for another
// problem, however valid, never answers this one.
func admit(p *Problem, v CachedVerdict) error {
	c := v.Cert
	switch {
	case c == nil && v.Verdict == core.Unknown:
		return nil
	case c == nil:
		return fmt.Errorf("serve: %s verdict without a certificate", v.Verdict)
	case c.Verdict != v.Verdict.String():
		return fmt.Errorf("serve: certificate of %q for a %s verdict", c.Verdict, v.Verdict)
	case embedsRequest(c, p):
		return checkParsed(c, p)
	}
	cp := c.Problem
	q, err := parseProblem(Request{
		Alphabet: cp.Alphabet, A0: cp.A0, Zero: cp.Zero, Equations: cp.Equations,
		Schema: cp.Schema, Deps: cp.Deps, Goal: cp.Goal,
	})
	if err != nil {
		return err
	}
	if q.Key != p.Key {
		return fmt.Errorf("serve: certificate is about another problem")
	}
	return checkParsed(c, q)
}

// embedsRequest reports whether c embeds p's own problem: the request's
// wire form, or the certificate form of its parse (what the portfolio
// embeds in the certificates it writes for p).
func embedsRequest(c *cert.Certificate, p *Problem) bool {
	w := p.Wire
	if w.Preset == "" && sameProblem(c.Problem, cert.Problem{
		Alphabet: w.Alphabet, A0: w.A0, Zero: w.Zero, Equations: w.Equations,
		Schema: w.Schema, Deps: w.Deps, Goal: w.Goal,
	}) {
		return true
	}
	if p.Pres != nil {
		return sameProblem(c.Problem, cert.PresentationProblem(p.Pres))
	}
	return sameProblem(c.Problem, cert.TDProblem(p.Goal.Schema(), p.Deps, p.Goal))
}

func sameProblem(a, b cert.Problem) bool {
	return a.A0 == b.A0 && a.Zero == b.Zero && a.Goal == b.Goal &&
		slices.Equal(a.Alphabet, b.Alphabet) && slices.Equal(a.Equations, b.Equations) &&
		slices.Equal(a.Schema, b.Schema) && slices.Equal(a.Deps, b.Deps)
}

// checkParsed checks c's payload against p's parse, which must be the
// parse of the problem c embeds.
func checkParsed(c *cert.Certificate, p *Problem) error {
	if p.Pres != nil {
		return cert.CheckPresentation(c, p.Pres)
	}
	return cert.CheckTD(c, p.Deps, p.Goal)
}

// certChecked emits the cert_check event for an admit that checked a
// certificate.
func certChecked(sink obs.Sink, p *Problem, c *cert.Certificate, err error) {
	if c == nil {
		return
	}
	verdict := "ok"
	if err != nil {
		verdict = "rejected"
	}
	sink.Event(obs.Event{Type: obs.EvCertCheck, Src: "serve",
		Key: p.Hash, Source: string(c.Kind), Verdict: verdict})
}

// storePut writes an answered verdict through to disk. Store errors are
// swallowed: a full disk must not fail a request the engines already
// answered (the store's own events record what was and wasn't written).
func (s *Server) storePut(p *Problem, v CachedVerdict) {
	if s.cfg.Store == nil {
		return
	}
	_, _ = s.cfg.Store.Put(recordOf(p.Key, v))
}

// peerFill forwards a local miss to the ring owner of its canonical key
// and adopts the answer only when it is definitive and passes admit — a
// certificate that proves the verdict for THIS request's problem, checked
// here. Anything less — peer down, unknown verdict, missing or rejected
// certificate — falls back to a local engine run; sharding is a fast path,
// never a correctness dependency.
func (s *Server) peerFill(p *Problem, sink obs.Sink) (CachedVerdict, bool) {
	if s.ring == nil || p.LocalOnly {
		return CachedVerdict{}, false
	}
	owner := s.ring.Owner(p.Key)
	if owner == "" || owner == s.cfg.Self {
		return CachedVerdict{}, false
	}
	fill := func(verdict string) {
		sink.Event(obs.Event{Type: obs.EvServePeerFill, Src: "serve",
			Key: p.Hash, Source: owner, Verdict: verdict})
	}
	body, err := json.Marshal(p.Wire)
	if err != nil {
		fill("down")
		return CachedVerdict{}, false
	}
	req, err := http.NewRequestWithContext(s.rootCtx, http.MethodPost,
		owner+"/infer?cert=1", bytes.NewReader(body))
	if err != nil {
		fill("down")
		return CachedVerdict{}, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerFillHeader, "1")
	httpResp, err := s.peerClient.Do(req)
	if err != nil {
		fill("down")
		return CachedVerdict{}, false
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		fill("down")
		return CachedVerdict{}, false
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		fill("down")
		return CachedVerdict{}, false
	}
	if resp.Verdict == core.Unknown || resp.Cert == nil {
		// An unknown verdict is a budget report about the PEER's budget;
		// adopting it would let one replica's limits answer for another's.
		// A definitive verdict without a certificate is just a claim.
		fill("unknown")
		return CachedVerdict{}, false
	}
	// A peer can be wrong, stale, or hostile — never believed: its answer
	// passes the rule a store record passes.
	v := CachedVerdict{
		Verdict: resp.Verdict,
		Winner:  resp.Winner,
		ColdMS:  resp.ColdMS,
		Cert:    resp.Cert,
		CertOK:  true,
		Class:   s.requestClass(p),
	}
	err = admit(p, v)
	certChecked(sink, p, resp.Cert, err)
	if err != nil {
		fill("rejected")
		return CachedVerdict{}, false
	}
	fill("ok")
	return v, true
}
