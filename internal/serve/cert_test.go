package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
)

// validCert obtains a genuine, checkable certificate by running one real
// cold inference (the twostep preset is Implied with a 2-step derivation).
func validCert(t *testing.T) *cert.Certificate {
	t.Helper()
	return certOf(t, "twostep")
}

// certOf runs preset cold on a fresh server and returns the certificate
// of its definitive verdict.
func certOf(t *testing.T, preset string) *cert.Certificate {
	t.Helper()
	s := New(Config{RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())
	resp, err := s.Infer(presetProblem(t, preset))
	if err != nil {
		t.Fatalf("cold %s: %v", preset, err)
	}
	if resp.Cert == nil {
		t.Fatalf("cold %s run produced no certificate", preset)
	}
	return resp.Cert
}

func TestColdRunCarriesVerifiedCert(t *testing.T) {
	counters := obs.NewCounters()
	s := New(Config{Counters: counters, RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())

	cold, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if cold.Verdict != core.Implied || cold.Cert == nil {
		t.Fatalf("cold twostep: verdict=%v cert=%v", cold.Verdict, cold.Cert)
	}
	if err := cert.Check(cold.Cert); err != nil {
		t.Fatalf("served certificate fails the independent checker: %v", err)
	}
	hit, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil || hit.Source != "cache" {
		t.Fatalf("repeat: source=%s err=%v", hit.Source, err)
	}
	if hit.Cert == nil {
		t.Fatalf("cache hit dropped the certificate")
	}
	fcex, err := s.Infer(presetProblem(t, "power"))
	if err != nil {
		t.Fatalf("power: %v", err)
	}
	if fcex.Verdict != core.FiniteCounterexample || fcex.Cert == nil {
		t.Fatalf("power: verdict=%v cert=%v", fcex.Verdict, fcex.Cert)
	}
	if fcex.Cert.Kind != cert.KindFiniteModel {
		t.Fatalf("power cert kind = %s, want %s", fcex.Cert.Kind, cert.KindFiniteModel)
	}
	if err := cert.Check(fcex.Cert); err != nil {
		t.Fatalf("finite-model certificate fails the checker: %v", err)
	}
	if got := counters.Get("serve.cert_checked"); got != 2 {
		t.Fatalf("serve.cert_checked = %d, want 2 (one per cold run)", got)
	}
	if got := counters.Get("serve.cert_rejected"); got != 0 {
		t.Fatalf("serve.cert_rejected = %d, want 0", got)
	}
}

func TestFillPathRejectedCertDroppedVerdictKept(t *testing.T) {
	bad := *validCert(t)
	bad.Version++ // fails cert.Check without touching the payload
	counters := obs.NewCounters()
	r := func(_ context.Context, _ *Problem, _ core.Budget) (CachedVerdict, error) {
		return CachedVerdict{Verdict: core.Implied, Winner: "derivation", Cert: &bad}, nil
	}
	s := New(Config{Runner: r, Counters: counters})
	resp, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	if resp.Verdict != core.Implied {
		t.Fatalf("verdict = %v, want Implied (rejection must not change the verdict)", resp.Verdict)
	}
	if resp.Cert != nil {
		t.Fatalf("rejected certificate was served anyway")
	}
	if counters.Get("serve.cert_checked") != 1 || counters.Get("serve.cert_rejected") != 1 {
		t.Fatalf("cert counters = %d checked / %d rejected, want 1/1",
			counters.Get("serve.cert_checked"), counters.Get("serve.cert_rejected"))
	}
}

func TestCacheHitWithFailingCertIsMissAndRecomputed(t *testing.T) {
	good := validCert(t)
	bad := *good
	bad.Version++
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Implied}
	s := New(Config{Runner: r.run, Counters: counters})
	p := presetProblem(t, "twostep")

	// Plant a cached entry whose certificate was never verified and does
	// not check out — the shape a corrupted persisted cache would have.
	s.mu.Lock()
	s.cache.Put(p.Key, CachedVerdict{Verdict: core.Implied, Cert: &bad})
	s.mu.Unlock()

	resp, err := s.Infer(p)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	if resp.Source != "cold" {
		t.Fatalf("hit with failing cert served from %q, want cold recompute", resp.Source)
	}
	if r.count() != 1 {
		t.Fatalf("engine ran %d times, want 1 recompute", r.count())
	}
	if counters.Get("serve.cert_rejected") != 1 {
		t.Fatalf("serve.cert_rejected = %d, want 1", counters.Get("serve.cert_rejected"))
	}
	// The recomputed entry replaced the poisoned one.
	if resp2, err := s.Infer(p); err != nil || resp2.Source != "cache" {
		t.Fatalf("repeat after recompute: source=%v err=%v", resp2.Source, err)
	}

	// A stored-but-unverified GOOD certificate verifies on its hit and the
	// entry is served (and marked checked, so the next hit skips the work).
	s.mu.Lock()
	s.cache.Put(p.Key, CachedVerdict{Verdict: core.Implied, Cert: good})
	s.mu.Unlock()
	resp3, err := s.Infer(p)
	if err != nil || resp3.Source != "cache" || resp3.Cert == nil {
		t.Fatalf("unverified good cert: source=%v cert=%v err=%v", resp3.Source, resp3.Cert, err)
	}
	if counters.Get("serve.cert_checked") != 2 {
		t.Fatalf("serve.cert_checked = %d, want 2", counters.Get("serve.cert_checked"))
	}
	s.mu.Lock()
	v, _ := s.cache.Get(p.Key)
	s.mu.Unlock()
	if !v.CertOK {
		t.Fatalf("hit-path verification did not mark the entry checked")
	}

	// The same valid certificate under another problem's key proves
	// nothing about it: power's entry is evicted and recomputed.
	q := presetProblem(t, "power")
	s.mu.Lock()
	s.cache.Put(q.Key, CachedVerdict{Verdict: core.Implied, Cert: good})
	s.mu.Unlock()
	if resp4, err := s.Infer(q); err != nil || resp4.Source != "cold" {
		t.Fatalf("twostep's certificate under power's key: source=%v err=%v, want cold", resp4.Source, err)
	}
	if r.count() != 2 || counters.Get("serve.cert_rejected") != 2 {
		t.Fatalf("engine ran %d times, serve.cert_rejected = %d; want 2 and 2",
			r.count(), counters.Get("serve.cert_rejected"))
	}
}

func TestLargerBudgetOverwritesCachedUnknown(t *testing.T) {
	r := &gatedRunner{verdict: core.Unknown}
	s := New(Config{Runner: r.run})

	small := presetProblem(t, "gap")
	if resp, err := s.Infer(small); err != nil || resp.Source != "cold" {
		t.Fatalf("first: %v %v", resp.Source, err)
	}
	if resp, err := s.Infer(small); err != nil || resp.Source != "cache" {
		t.Fatalf("same budget repeat: %v %v", resp.Source, err)
	}

	big, err := ParseRequest(Request{Preset: "gap", Rounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if big.Key != small.Key {
		t.Fatalf("budget override changed the canonical key")
	}
	if resp, err := s.Infer(big); err != nil || resp.Source != "cold" {
		t.Fatalf("larger budget should re-run the Unknown: %v %v", resp.Source, err)
	}
	if r.count() != 2 {
		t.Fatalf("engine ran %d times, want 2", r.count())
	}
	// The big run overwrote the entry: a repeat at the big class hits...
	if resp, err := s.Infer(big); err != nil || resp.Source != "cache" {
		t.Fatalf("repeat at larger class: %v %v", resp.Source, err)
	}
	// ...and so does a smaller class — its budget cannot do better.
	tiny, err := ParseRequest(Request{Preset: "gap", Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s.Infer(tiny); err != nil || resp.Source != "cache" {
		t.Fatalf("smaller class should hit: %v %v", resp.Source, err)
	}
	if r.count() != 2 {
		t.Fatalf("engine ran %d times after hits, want 2", r.count())
	}
}

func TestHTTPCertOptIn(t *testing.T) {
	s := New(Config{RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return m
	}

	if m := post("/infer", `{"preset":"twostep"}`); m["cert"] != nil {
		t.Fatalf("cert served without opt-in: %v", m["cert"])
	}
	m := post("/infer?cert=1", `{"preset":"twostep"}`)
	raw, ok := m["cert"].(map[string]any)
	if !ok {
		t.Fatalf("?cert=1 response carries no certificate: %v", m)
	}
	// The inline certificate must itself decode and check.
	buf, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.Decode(buf)
	if err != nil {
		t.Fatalf("inline cert decode: %v", err)
	}
	if err := cert.Check(c); err != nil {
		t.Fatalf("inline cert check: %v", err)
	}
	// Budget-override fields are part of the wire schema.
	if m := post("/infer", `{"preset":"gap","rounds":4,"tuples":64}`); m["verdict"] == nil {
		t.Fatalf("budget override request failed: %v", m)
	}
}

// A server with a zero config runs kb at rewrite.DefaultLimits and the
// derivation arm at words.DefaultLimits, like every other front-end, and
// settles -checkportfolio's grid with the grid's verdicts and winners;
// collapse:4 needs more than 200 rules. Every answer carries its winning
// arm's proof, and it checks.
func TestZeroConfigServesPortfolioGrid(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	for _, g := range []struct {
		preset  string
		verdict core.Verdict
		winner  string
		kind    cert.Kind
	}{
		{"power", core.FiniteCounterexample, "model-search", cert.KindFiniteModel},
		{"twostep", core.Implied, "derivation", cert.KindDerivation},
		{"chain:2", core.Implied, "derivation", cert.KindDerivation},
		{"collapse:4", core.Implied, "kb", cert.KindDerivation},
	} {
		resp, err := s.Infer(presetProblem(t, g.preset))
		if err != nil {
			t.Fatalf("%s: %v", g.preset, err)
		}
		if resp.Verdict != g.verdict || resp.Winner != g.winner {
			t.Errorf("%s: %v won by %q, want %v won by %q", g.preset, resp.Verdict, resp.Winner, g.verdict, g.winner)
			continue
		}
		if resp.Cert == nil || resp.Cert.Kind != g.kind {
			t.Errorf("%s: certificate %v, want kind %s", g.preset, resp.Cert, g.kind)
			continue
		}
		if err := cert.Check(resp.Cert); err != nil {
			t.Errorf("%s: certificate rejected: %v", g.preset, err)
		}
	}
}

// Config.Limits.Words has no effect: the derivation arm's ceiling is
// words.DefaultLimits for every caller, so a server configured with a
// one-word limit still derives twostep's goal.
func TestConfigWordsLimitHasNoEffect(t *testing.T) {
	s := New(Config{Limits: budget.Limits{Words: 1}})
	defer s.Shutdown(context.Background())
	resp, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != core.Implied || resp.Winner != "derivation" {
		t.Fatalf("twostep under Limits.Words 1: %v won by %q, want implied by derivation", resp.Verdict, resp.Winner)
	}
}
