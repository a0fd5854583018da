package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/store"
)

func tempVerdictStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.DefaultPath(dir), store.Options{NoAutoCompact: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreWriteThroughAndRestartWarm is the persistence acceptance
// property: a verdict answered before a restart is answered after it from
// the disk store (Source "store"), certificate intact, without an engine
// run.
func TestStoreWriteThroughAndRestartWarm(t *testing.T) {
	dir := t.TempDir()
	st := tempVerdictStore(t, dir)

	s1 := New(Config{Store: st, RequestTimeout: 10 * time.Second})
	p := presetProblem(t, "twostep")
	cold, err := s1.Infer(p)
	if err != nil || cold.Source != "cold" || cold.Cert == nil {
		t.Fatalf("cold: source=%v cert=%v err=%v", cold.Source, cold.Cert, err)
	}
	s1.Shutdown(context.Background())
	if rec, ok := st.Get(p.Key); !ok || rec.Verdict != "implied" || len(rec.Cert) == 0 {
		t.Fatalf("write-through record missing or certless: %+v ok=%v", rec, ok)
	}
	st.Close()

	// "Restart": a fresh server over a fresh open of the same log, with a
	// runner that must never fire.
	st2 := tempVerdictStore(t, dir)
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Unknown}
	s2 := New(Config{Store: st2, Runner: r.run, Counters: counters})
	defer s2.Shutdown(context.Background())

	warm, err := s2.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatalf("restart infer: %v", err)
	}
	if warm.Source != "store" {
		t.Fatalf("restarted replica answered from %q, want store", warm.Source)
	}
	if warm.Verdict != core.Implied || warm.Cert == nil {
		t.Fatalf("store hit lost the verdict or certificate: %v cert=%v", warm.Verdict, warm.Cert)
	}
	if r.count() != 0 {
		t.Fatalf("restart recomputed a stored verdict (%d engine runs)", r.count())
	}
	if counters.Get("serve.store_hits") != 1 {
		t.Fatalf("serve.store_hits = %d, want 1", counters.Get("serve.store_hits"))
	}
	// The stored certificate was re-verified on the hit, not trusted.
	if counters.Get("serve.cert_checked") != 1 || counters.Get("serve.cert_rejected") != 0 {
		t.Fatalf("cert counters = %d/%d, want 1 checked, 0 rejected",
			counters.Get("serve.cert_checked"), counters.Get("serve.cert_rejected"))
	}
	// The store hit landed in the in-memory cache: the next repeat never
	// touches disk.
	again, err := s2.Infer(presetProblem(t, "twostep"))
	if err != nil || again.Source != "cache" {
		t.Fatalf("repeat after store hit: source=%v err=%v", again.Source, err)
	}
}

// TestStoreUnknownClassUpgradePersists: an unknown answered under a small
// budget class stands for same-or-smaller requests across a restart, but a
// larger-budget request re-runs and its class upgrade lands back on disk.
func TestStoreUnknownClassUpgradePersists(t *testing.T) {
	dir := t.TempDir()
	st := tempVerdictStore(t, dir)
	r1 := &gatedRunner{verdict: core.Unknown}
	s1 := New(Config{Store: st, Runner: r1.run})
	small, err := ParseRequest(Request{Preset: "gap", Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s1.Infer(small); err != nil || resp.Source != "cold" {
		t.Fatalf("small cold: %v %v", resp.Source, err)
	}
	s1.Shutdown(context.Background())
	st.Close()

	st2 := tempVerdictStore(t, dir)
	r2 := &gatedRunner{verdict: core.Unknown}
	s2 := New(Config{Store: st2, Runner: r2.run})
	defer s2.Shutdown(context.Background())

	// Same class after restart: the stored unknown stands.
	if resp, err := s2.Infer(small); err != nil || resp.Source != "store" {
		t.Fatalf("same-class restart: source=%v err=%v", resp.Source, err)
	}
	if r2.count() != 0 {
		t.Fatalf("same-class request re-ran the engine")
	}
	// Larger class: the stored unknown is a miss, the re-run overwrites
	// the record with the bigger class — durably.
	big, err := ParseRequest(Request{Preset: "gap", Rounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s2.Infer(big); err != nil || resp.Source != "cold" {
		t.Fatalf("larger-class restart: source=%v err=%v", resp.Source, err)
	}
	if r2.count() != 1 {
		t.Fatalf("larger-class request ran %d engines, want 1", r2.count())
	}
	rec, ok := st2.Get(big.Key)
	if !ok || rec.Class.Rounds != 100000 {
		t.Fatalf("class upgrade did not persist: %+v ok=%v", rec, ok)
	}
}

// TestUnknownClassIsTheArmsNodeCeiling: an unknown's budget class records
// the node ceiling its request's arms ran under — finite-db's default for a
// TD instance, model-search's for a presentation. A repeat that brings
// 3,000,000 nodes, above finite-db's 2,000,000 and below model-search's
// 5,000,000, therefore re-runs the TD instance and not the presentation,
// on the cache rung and, after a restart, on the store rung.
func TestUnknownClassIsTheArmsNodeCeiling(t *testing.T) {
	parse := func(req Request, nodes int) *Problem {
		t.Helper()
		req.Nodes = nodes
		p, err := ParseRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tdReq := Request{Schema: []string{"A", "B", "C"},
		Deps: []string{"R(a,b,c) & R(a,b2,c2) -> R(a,b,c2)"}, Goal: goalSwapConcl}
	for _, rung := range []string{"cache", "store"} {
		for _, tc := range []struct {
			name   string
			req    Request
			source string
			runs   int
		}{
			{"td", tdReq, "cold", 1},
			{"presentation", Request{Preset: "gap"}, rung, 0},
		} {
			dir := t.TempDir()
			st := tempVerdictStore(t, dir)
			r := &gatedRunner{verdict: core.Unknown}
			s := New(Config{Store: st, Runner: r.run})
			if resp, err := s.Infer(parse(tc.req, 0)); err != nil || resp.Source != "cold" {
				t.Fatalf("%s/%s: first request: source=%v err=%v", rung, tc.name, resp.Source, err)
			}
			if rung == "store" {
				s.Shutdown(context.Background())
				st.Close()
				r = &gatedRunner{verdict: core.Unknown}
				s = New(Config{Store: tempVerdictStore(t, dir), Runner: r.run})
			}
			before := r.count()
			resp, err := s.Infer(parse(tc.req, 3_000_000))
			if err != nil || resp.Source != tc.source {
				t.Errorf("%s/%s: repeat at 3,000,000 nodes: source=%v err=%v, want %s",
					rung, tc.name, resp.Source, err, tc.source)
			}
			if got := r.count() - before; got != tc.runs {
				t.Errorf("%s/%s: repeat ran %d engines, want %d", rung, tc.name, got, tc.runs)
			}
			s.Shutdown(context.Background())
		}
	}
}

// TestStoreLoadsRecordsWithRetiredWordsClass: a log written while the
// budget class still carried a words meter reopens, and its unknown
// answers a same-class request from the store — the store's decoder
// ignores the retired "words" class key.
func TestStoreLoadsRecordsWithRetiredWordsClass(t *testing.T) {
	dir := t.TempDir()
	p := presetProblem(t, "gap")
	payload, err := json.Marshal(map[string]any{"key": p.Key, "verdict": "unknown",
		"class": map[string]int{"rounds": 64, "tuples": 100000, "nodes": 5000000, "words": 100000}})
	if err != nil {
		t.Fatal(err)
	}
	// The append-log framing: magic, then per record its length and
	// CRC-32 (little-endian uint32s) before the JSON payload.
	log := []byte("TDVSTOR1")
	log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
	log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
	log = append(log, payload...)
	if err := os.WriteFile(store.DefaultPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}
	r := &gatedRunner{verdict: core.Unknown}
	s := New(Config{Store: tempVerdictStore(t, dir), Runner: r.run})
	defer s.Shutdown(context.Background())
	if resp, err := s.Infer(p); err != nil || resp.Source != "store" || r.count() != 0 {
		t.Fatalf("old-format record: source=%v err=%v engine runs=%d, want a store hit",
			resp.Source, err, r.count())
	}
}

// TestStoreReplacesUndecodableRecords: the store's recovery parses only a
// record's frame, so a stored record whose metadata is not JSON, and one
// whose certificate is not, both reach the lookup ladder. Each must cost
// one cold run whose verdict replaces it on disk, so that a restarted
// replica answers both from the store.
func TestStoreReplacesUndecodableRecords(t *testing.T) {
	dir := t.TempDir()
	badMeta, badCert := presetProblem(t, "twostep"), presetProblem(t, "power")
	// The TDVSTOR2 framing: magic, then per record its length and CRC-32
	// (little-endian uint32s) before the payload: the key's uvarint length
	// and bytes, a flag byte, the metadata's uvarint length and bytes, and
	// the certificate.
	log := []byte("TDVSTOR2")
	for _, r := range []struct{ key, meta, cert string }{
		{badMeta.Key, `{"verdict":`, ""},
		{badCert.Key, `{"verdict":"finite-counterexample","winner":"model-search"}`, `{"version":1,`},
	} {
		payload := binary.AppendUvarint(nil, uint64(len(r.key)))
		payload = append(append(payload, r.key...), 0)
		payload = binary.AppendUvarint(payload, uint64(len(r.meta)))
		payload = append(append(payload, r.meta...), r.cert...)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
		log = append(log, payload...)
	}
	if err := os.WriteFile(store.DefaultPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}

	st := tempVerdictStore(t, dir)
	s := New(Config{Store: st, RequestTimeout: 10 * time.Second})
	for _, p := range []*Problem{badMeta, badCert} {
		if resp, err := s.Infer(p); err != nil || resp.Source != "cold" {
			t.Fatalf("undecodable record: source=%v err=%v, want a cold run", resp.Source, err)
		}
	}
	s.Shutdown(context.Background())
	st.Close()

	r := &gatedRunner{verdict: core.Unknown}
	s2 := New(Config{Store: tempVerdictStore(t, dir), Runner: r.run})
	defer s2.Shutdown(context.Background())
	for _, p := range []*Problem{badMeta, badCert} {
		if resp, err := s2.Infer(p); err != nil || resp.Source != "store" || resp.Verdict == core.Unknown {
			t.Fatalf("after a restart: source=%v verdict=%v err=%v, want the cold run's verdict from the store",
				resp.Source, resp.Verdict, err)
		}
	}
	if r.count() != 0 {
		t.Fatalf("the restarted replica ran %d engines", r.count())
	}
}

// recodeCert deep-copies c through its JSON form.
func recodeCert(t *testing.T, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var out cert.Certificate
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestStoreRecordsPassThePeerRule: a CRC-valid record is an input, not an
// authority — a store hit passes the rule a peer fill passes (admit).
// Each record below breaks one condition of that rule; each costs one
// cold run, is answered with the engine's verdict, and is replaced on
// disk, so a restart answers it from the store.
func TestStoreRecordsPassThePeerRule(t *testing.T) {
	twostep := validCert(t)
	tampered := recodeCert(t, certOf(t, "chain:3"))
	tampered.Derivation.Steps[0].Result = "A0"
	renamed := recodeCert(t, certOf(t, "chain:4"))
	slices.Reverse(renamed.Problem.Equations)
	renamed.Derivation.Steps[0].Result = "A0"
	records := []struct {
		preset, verdict string
		cert            *cert.Certificate
		want            core.Verdict
	}{
		// another problem's valid certificate
		{"power", "implied", twostep, core.FiniteCounterexample},
		// a definitive verdict without a certificate
		{"chain:2", "finite-counterexample", nil, core.Implied},
		// the problem's own certificate under another verdict
		{"twostep", "finite-counterexample", twostep, core.Implied},
		// the request's own problem, a payload that does not check
		{"chain:3", "implied", tampered, core.Implied},
		// the same problem spelled differently, a payload that does not check
		{"chain:4", "implied", renamed, core.Implied},
	}
	if p := presetProblem(t, "chain:4"); embedsRequest(renamed, p) {
		t.Fatal("the reordered certificate takes the fast path")
	}
	dir := t.TempDir()
	st := tempVerdictStore(t, dir)
	for _, r := range records {
		rec := store.Record{Key: presetProblem(t, r.preset).Key, Verdict: r.verdict, Winner: "derivation"}
		if r.cert != nil {
			raw, err := json.Marshal(r.cert)
			if err != nil {
				t.Fatal(err)
			}
			rec.Cert = raw
		}
		if _, err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	counters := obs.NewCounters()
	runs := 0
	s := New(Config{Store: st, Counters: counters, RequestTimeout: 10 * time.Second,
		Runner: func(ctx context.Context, p *Problem, b core.Budget) (CachedVerdict, error) {
			runs++
			return PortfolioRunner(ctx, p, b)
		}})
	for i, r := range records {
		p := presetProblem(t, r.preset)
		resp, err := s.Infer(p)
		if err != nil || resp.Source != "cold" || resp.Verdict != r.want {
			t.Fatalf("%s: source=%q verdict=%v err=%v; want a cold %v", r.preset, resp.Source, resp.Verdict, err, r.want)
		}
		if runs != i+1 {
			t.Fatalf("%s: %d engine runs, want %d", r.preset, runs, i+1)
		}
		if rec, ok := st.Get(p.Key); !ok || rec.Verdict != r.want.String() || len(rec.Cert) == 0 {
			t.Fatalf("%s: record not replaced: %+v ok=%v", r.preset, rec, ok)
		}
	}
	if got := counters.Get("serve.cert_rejected"); got != 4 {
		t.Fatalf("serve.cert_rejected = %d, want 4 (every record with a certificate)", got)
	}
	s.Shutdown(context.Background())

	gated := &gatedRunner{verdict: core.Unknown}
	s2 := New(Config{Store: st, Runner: gated.run})
	defer s2.Shutdown(context.Background())
	for _, r := range records {
		resp, err := s2.Infer(presetProblem(t, r.preset))
		if err != nil || resp.Source != "store" || resp.Verdict != r.want {
			t.Fatalf("%s after restart: source=%q verdict=%v err=%v", r.preset, resp.Source, resp.Verdict, err)
		}
	}
	// The same problem spelled differently (equations reversed) shares
	// the record: its certificate takes admit's canonicalizing path.
	w := cert.PresentationProblem(presetProblem(t, "twostep").Pres)
	slices.Reverse(w.Equations)
	q, err := ParseRequest(Request{Alphabet: w.Alphabet, A0: w.A0, Zero: w.Zero, Equations: w.Equations})
	if err != nil {
		t.Fatal(err)
	}
	s2.mu.Lock()
	s2.cache.Delete(q.Key)
	s2.mu.Unlock()
	if resp, err := s2.Infer(q); err != nil || resp.Source != "store" || resp.Verdict != core.Implied {
		t.Fatalf("respelled twostep: source=%q verdict=%v err=%v", resp.Source, resp.Verdict, err)
	}
	if gated.count() != 0 {
		t.Fatalf("the restarted replica ran %d engines", gated.count())
	}
}

// TestServedCertificatesProveTheRequest: whichever rung answers — a cold
// run, the cache, the store after a restart, a peer — a ?cert=1 response
// carries a certificate whose problem canonicalizes to the request's key.
func TestServedCertificatesProveTheRequest(t *testing.T) {
	w := cert.PresentationProblem(presetProblem(t, "twostep").Pres)
	slices.Reverse(w.Equations)
	respelled, err := json.Marshal(Request{Alphabet: w.Alphabet, A0: w.A0, Zero: w.Zero, Equations: w.Equations})
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		`{"preset":"twostep"}`,
		string(respelled),
		`{"preset":"power"}`,
		`{"schema":["A","B"],"deps":["R(x, y) & R(x, y') -> R(x, y)"],"goal":"R(x, y) -> R(x, y)"}`,
	}
	check := func(url, body, source string) {
		t.Helper()
		resp, err := http.Post(url+"/infer?cert=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		want, err := ParseRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		if out.Source != source || out.Cert == nil {
			t.Fatalf("%s: source %q cert %v, want a %s answer with a certificate", body, out.Source, out.Cert != nil, source)
		}
		cp := out.Cert.Problem
		got, err := parseProblem(Request{Alphabet: cp.Alphabet, A0: cp.A0, Zero: cp.Zero, Equations: cp.Equations,
			Schema: cp.Schema, Deps: cp.Deps, Goal: cp.Goal})
		if err != nil || got.Key != want.Key {
			t.Fatalf("%s (%s): certificate problem does not canonicalize to the request's key (err %v)", body, source, err)
		}
	}

	dir := t.TempDir()
	s := New(Config{Store: tempVerdictStore(t, dir), RequestTimeout: 10 * time.Second})
	srv := httptest.NewServer(s.Handler())
	check(srv.URL, bodies[0], "cold")
	check(srv.URL, bodies[1], "cache")
	check(srv.URL, bodies[2], "cold")
	check(srv.URL, bodies[3], "cold")
	check(srv.URL, bodies[3], "cache")
	srv.Close()
	s.Shutdown(context.Background())
	s.cfg.Store.Close()

	s2 := New(Config{Store: tempVerdictStore(t, dir), Runner: (&gatedRunner{verdict: core.Unknown}).run})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	defer s2.Shutdown(context.Background())
	check(srv2.URL, bodies[1], "store")
	check(srv2.URL, bodies[2], "store")
	check(srv2.URL, bodies[3], "store")

	_, b, urls := twoReplicas(t, func(peers []string, self string) Config {
		return Config{Peers: peers, Self: self, RequestTimeout: 10 * time.Second}
	})
	p := ownedProblem(t, b, urls[0])
	check(urls[1], fmt.Sprintf(`{"preset":%q}`, p.Wire.Preset), "peer")
}

// TestEngineCertificatesEmbedTheRequest: the certificate a cold run
// writes embeds its request's own problem, so admit checks it against the
// request's parse without canonicalizing anything — for a preset, a
// presentation spelled out, and a TD instance whose variable names are
// not td.Format's.
func TestEngineCertificatesEmbedTheRequest(t *testing.T) {
	s := New(Config{RequestTimeout: 10 * time.Second})
	defer s.Shutdown(context.Background())
	w := cert.PresentationProblem(presetProblem(t, "chain:2").Pres)
	for _, req := range []Request{
		{Preset: "twostep"},
		{Alphabet: w.Alphabet, A0: w.A0, Zero: w.Zero, Equations: w.Equations},
		{Schema: []string{"A", "B"}, Deps: []string{"R(x, y) & R(x, y') -> R(x, y)"}, Goal: "R(x, y) -> R(x, y)"},
	} {
		p, err := ParseRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.Infer(p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cert == nil || !embedsRequest(resp.Cert, p) {
			t.Errorf("%+v: the cold run's certificate does not embed the request's problem", req)
		}
	}
}

// twoReplicas wires two serve.Servers into a two-peer ring over real HTTP
// listeners (the URLs must exist before New, so the handlers are bound
// through late-binding shims).
func twoReplicas(t *testing.T, mk func(peers []string, self string) Config) (a, b *Server, urls [2]string) {
	t.Helper()
	var ha, hb http.Handler
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ha.ServeHTTP(w, r) }))
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hb.ServeHTTP(w, r) }))
	t.Cleanup(srvA.Close)
	t.Cleanup(srvB.Close)
	peers := []string{srvA.URL, srvB.URL}
	a = New(mk(peers, srvA.URL))
	b = New(mk(peers, srvB.URL))
	t.Cleanup(func() { a.Shutdown(context.Background()); b.Shutdown(context.Background()) })
	ha, hb = a.Handler(), b.Handler()
	return a, b, [2]string{srvA.URL, srvB.URL}
}

// ownedProblem finds a definitive-verdict preset whose canonical key the
// ring assigns to owner. The replicas listen on random ports, so the ring
// may give all seven fixed candidates to another replica (about 1 run in
// 128); chain:7 through chain:40 follow them, each implied with its own
// key and settled by the derivation arm's first lease.
func ownedProblem(t *testing.T, s *Server, owner string, exclude ...string) *Problem {
	t.Helper()
	candidates := []string{"twostep", "power", "chain:2", "chain:3", "chain:4", "chain:5", "chain:6"}
	for n := 7; n <= 40; n++ {
		candidates = append(candidates, fmt.Sprintf("chain:%d", n))
	}
	for _, name := range candidates {
		skip := false
		for _, x := range exclude {
			skip = skip || name == x
		}
		if skip {
			continue
		}
		p := presetProblem(t, name)
		if s.ring.Owner(p.Key) == owner {
			return p
		}
	}
	t.Fatalf("no candidate preset hashes to owner %s", owner)
	return nil
}

// TestPeerFillAdoptsVerifiedVerdict: a miss on the non-owner replica is
// answered by the owner, and adopted only after the certificate the owner
// returned verified locally. The non-owner's engine never runs.
func TestPeerFillAdoptsVerifiedVerdict(t *testing.T) {
	countersA, countersB := obs.NewCounters(), obs.NewCounters()
	var engineB int
	servers := map[string]*obs.Counters{}
	a, b, urls := twoReplicas(t, func(peers []string, self string) Config {
		cfg := Config{Peers: peers, Self: self, RequestTimeout: 10 * time.Second}
		if len(servers) == 0 {
			cfg.Counters = countersA
			servers[self] = countersA
		} else {
			cfg.Counters = countersB
			servers[self] = countersB
			cfg.Runner = func(ctx context.Context, p *Problem, bud core.Budget) (CachedVerdict, error) {
				engineB++
				return PortfolioRunner(ctx, p, bud)
			}
		}
		return cfg
	})
	_ = a
	p := ownedProblem(t, b, urls[0]) // owned by A; asked on B

	resp, err := b.Infer(p)
	if err != nil {
		t.Fatalf("peer-filled infer: %v", err)
	}
	if resp.Source != "peer" {
		t.Fatalf("source = %q, want peer", resp.Source)
	}
	if resp.Verdict == core.Unknown || resp.Cert == nil {
		t.Fatalf("peer fill adopted verdict=%v cert=%v", resp.Verdict, resp.Cert)
	}
	if engineB != 0 {
		t.Fatalf("non-owner ran its own engine %d times", engineB)
	}
	if countersB.Get("serve.peer_fills") != 1 || countersB.Get("serve.peer_ok") != 1 {
		t.Fatalf("peer counters on B: %v", countersB.Snapshot())
	}
	// The owner computed it (cold) and saw it as a peer-fill request.
	if countersA.Get("serve.cache_misses") != 1 {
		t.Fatalf("owner counters: %v", countersA.Snapshot())
	}
	// The adopted verdict is cached: the repeat stays local.
	again, err := b.Infer(p)
	if err != nil || again.Source != "cache" {
		t.Fatalf("repeat after peer fill: source=%v err=%v", again.Source, err)
	}
}

// fakeOwner serves canned /infer responses — the shape of a peer that is
// buggy, stale, or hostile.
func fakeOwner(t *testing.T, respond func() Response) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(peerFillHeader) != "1" {
			t.Errorf("peer fill arrived without %s header", peerFillHeader)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(respond())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// peerRingServer builds one real replica whose ring routes to owner for
// some problems; pick one with ownedProblem.
func peerRingServer(t *testing.T, ownerURL string, counters *obs.Counters, r Runner) *Server {
	t.Helper()
	self := "http://self.invalid:1"
	s := New(Config{Peers: []string{ownerURL, self}, Self: self,
		Counters: counters, Runner: r, RequestTimeout: 10 * time.Second})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

// TestPeerFillTamperedCertRejectedAndRecomputed is the adversarial
// acceptance property: a peer answering with a certificate that does not
// prove THIS problem — here a perfectly valid certificate for a DIFFERENT
// problem — is rejected (serve.cert_rejected) and the verdict recomputed
// locally. A corrupted certificate for the right problem must fail the
// same way.
func TestPeerFillTamperedCertRejectedAndRecomputed(t *testing.T) {
	goodCert := validCert(t) // proves twostep, not what we will ask for
	owner := fakeOwner(t, func() Response {
		return Response{Source: "cold", Verdict: core.Implied, Winner: "derivation", Cert: goodCert}
	})
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Implied}
	s := peerRingServer(t, owner.URL, counters, r.run)
	// Exclude twostep from selection: the fake's cert would legitimately
	// prove it, and this test needs a cert for the WRONG problem.
	p := ownedProblem(t, s, owner.URL, "twostep")
	if p.Key == presetProblem(t, "twostep").Key {
		t.Fatalf("candidate selection returned the certificate's own problem")
	}

	resp, err := s.Infer(p)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	if resp.Source != "cold" {
		t.Fatalf("source = %q, want cold (local fallback after rejection)", resp.Source)
	}
	if r.count() != 1 {
		t.Fatalf("local fallback ran %d engines, want 1", r.count())
	}
	if counters.Get("serve.peer_fills") != 1 || counters.Get("serve.peer_rejected") != 1 {
		t.Fatalf("peer counters: %v", counters.Snapshot())
	}
	if counters.Get("serve.cert_rejected") != 1 {
		t.Fatalf("serve.cert_rejected = %d, want 1", counters.Get("serve.cert_rejected"))
	}

	// Variant: right problem, corrupted certificate (fails cert.Check).
	bad := *validCert(t)
	bad.Version++
	owner2 := fakeOwner(t, func() Response {
		return Response{Source: "cold", Verdict: core.Implied, Winner: "derivation", Cert: &bad}
	})
	counters2 := obs.NewCounters()
	r2 := &gatedRunner{verdict: core.Implied}
	s2 := peerRingServer(t, owner2.URL, counters2, r2.run)
	q := ownedProblem(t, s2, owner2.URL)
	resp2, err := s2.Infer(q)
	if err != nil || resp2.Source != "cold" {
		t.Fatalf("corrupt-cert fallback: source=%v err=%v", resp2.Source, err)
	}
	if counters2.Get("serve.peer_rejected") != 1 || counters2.Get("serve.cert_rejected") != 1 {
		t.Fatalf("corrupt-cert counters: %v", counters2.Snapshot())
	}
}

// TestPeerDownFallsBackLocal: an unreachable owner costs one failed fill,
// then the local engines answer.
func TestPeerDownFallsBackLocal(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Implied}
	s := peerRingServer(t, deadURL, counters, r.run)
	p := ownedProblem(t, s, deadURL)

	resp, err := s.Infer(p)
	if err != nil || resp.Source != "cold" {
		t.Fatalf("peer-down fallback: source=%v err=%v", resp.Source, err)
	}
	if r.count() != 1 {
		t.Fatalf("fallback ran %d engines, want 1", r.count())
	}
	if counters.Get("serve.peer_fills") != 1 || counters.Get("serve.peer_down") != 1 {
		t.Fatalf("peer counters: %v", counters.Snapshot())
	}
}

// TestPeerUnknownFallsBackLocal: a peer's Unknown is its budget's report,
// not ours — never adopted.
func TestPeerUnknownFallsBackLocal(t *testing.T) {
	owner := fakeOwner(t, func() Response {
		return Response{Source: "cold", Verdict: core.Unknown}
	})
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Implied}
	s := peerRingServer(t, owner.URL, counters, r.run)
	p := ownedProblem(t, s, owner.URL)

	resp, err := s.Infer(p)
	if err != nil || resp.Source != "cold" {
		t.Fatalf("peer-unknown fallback: source=%v err=%v", resp.Source, err)
	}
	if counters.Get("serve.peer_unknown") != 1 {
		t.Fatalf("peer counters: %v", counters.Snapshot())
	}
}

// TestPeerFillRequestsNeverReForward: a request carrying the peer-fill
// header is answered locally even when the ring says another replica owns
// it — the no-ping-pong rule.
func TestPeerFillRequestsNeverReForward(t *testing.T) {
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Implied}
	s := peerRingServer(t, "http://unreachable.invalid:1", counters, r.run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Find a problem owned by the unreachable peer, then ask for it AS a
	// peer fill: the server must not try to forward it anywhere.
	p := ownedProblem(t, s, "http://unreachable.invalid:1")
	body, _ := json.Marshal(p.Wire)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/infer", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(peerFillHeader, "1")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", httpResp.StatusCode)
	}
	var resp Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Source != "cold" {
		t.Fatalf("source = %q, want cold (local-only)", resp.Source)
	}
	if counters.Get("serve.peer_fills") != 0 {
		t.Fatalf("a peer-fill request was re-forwarded: %v", counters.Snapshot())
	}
}

// TestHealthzDrain503: /healthz flips to 503 the moment the drain begins,
// so balancers stop routing before the listener goes away.
func TestHealthzDrain503(t *testing.T) {
	s := New(Config{Runner: (&gatedRunner{verdict: core.Implied}).run})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() int {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("healthy replica /healthz = %d, want 200", code)
	}
	s.BeginDrain()
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("draining replica /healthz = %d, want 503", code)
	}
	s.Shutdown(context.Background())
}
