package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"templatedep/internal/core"
	"templatedep/internal/obs"
)

func presetProblem(t *testing.T, name string) *Problem {
	t.Helper()
	p, err := ParseRequest(Request{Preset: name})
	if err != nil {
		t.Fatalf("ParseRequest(%s): %v", name, err)
	}
	return p
}

// gatedRunner counts engine invocations and blocks each until release is
// closed, letting tests hold requests in flight deterministically.
type gatedRunner struct {
	mu      sync.Mutex
	calls   int
	release chan struct{}
	verdict core.Verdict
}

func (g *gatedRunner) run(_ context.Context, _ *Problem, _ core.Budget) (CachedVerdict, error) {
	g.mu.Lock()
	g.calls++
	g.mu.Unlock()
	if g.release != nil {
		<-g.release
	}
	return CachedVerdict{Verdict: g.verdict, Winner: "derivation"}, nil
}

func (g *gatedRunner) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

func TestSingleflightCollapsesConcurrentDuplicates(t *testing.T) {
	const dups = 8
	counters := obs.NewCounters()
	r := &gatedRunner{release: make(chan struct{}), verdict: core.Implied}
	s := New(Config{Runner: r.run, Counters: counters})
	p := presetProblem(t, "power")

	results := make(chan Response, dups)
	errs := make(chan error, dups)
	for i := 0; i < dups; i++ {
		go func() {
			resp, err := s.Infer(p)
			if err != nil {
				errs <- err
				return
			}
			results <- resp
		}()
	}
	// Wait until the leader is running and all followers are parked on it.
	deadline := time.Now().Add(5 * time.Second)
	for s.dupsFor(p.Key) < dups-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never parked: dups=%d", s.dupsFor(p.Key))
		}
		time.Sleep(time.Millisecond)
	}
	close(r.release)

	sources := map[string]int{}
	for i := 0; i < dups; i++ {
		select {
		case resp := <-results:
			sources[resp.Source]++
			if resp.Verdict != core.Implied {
				t.Fatalf("verdict %v", resp.Verdict)
			}
		case err := <-errs:
			t.Fatalf("Infer: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never finished", i)
		}
	}
	if r.count() != 1 {
		t.Fatalf("engine ran %d times for %d identical requests", r.count(), dups)
	}
	if sources["cold"] != 1 || sources["dedup"] != dups-1 {
		t.Fatalf("sources = %v, want 1 cold + %d dedup", sources, dups-1)
	}
	if got := counters.Get("serve.dedups"); got != dups-1 {
		t.Fatalf("serve.dedups = %d, want %d", got, dups-1)
	}
	if got := counters.Get("serve.cache_misses"); got != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1", got)
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	counters := obs.NewCounters()
	r := &gatedRunner{verdict: core.Unknown}
	s := New(Config{Runner: r.run, Counters: counters, CacheSize: 1})
	power := presetProblem(t, "power")
	gap := presetProblem(t, "gap")

	if resp, err := s.Infer(power); err != nil || resp.Source != "cold" {
		t.Fatalf("first power: %v %v", resp.Source, err)
	}
	if resp, err := s.Infer(power); err != nil || resp.Source != "cache" {
		t.Fatalf("repeat power: source=%v err=%v", resp.Source, err)
	}
	// A renamed-but-equivalent request must also hit: parse gap's canonical
	// twin via the explicit form. (Cheaper: re-parse the same preset.)
	if resp, err := s.Infer(presetProblem(t, "power")); err != nil || resp.Source != "cache" {
		t.Fatalf("re-parsed power: source=%v err=%v", resp.Source, err)
	}
	// Cache size 1: inferring gap evicts power.
	if resp, err := s.Infer(gap); err != nil || resp.Source != "cold" {
		t.Fatalf("gap: %v %v", resp.Source, err)
	}
	if resp, err := s.Infer(power); err != nil || resp.Source != "cold" {
		t.Fatalf("power after eviction: source=%v err=%v", resp.Source, err)
	}
	if got := counters.Get("serve.cache_hits"); got != 2 {
		t.Fatalf("serve.cache_hits = %d, want 2", got)
	}
	if got := s.Stats().CacheEntries; got != 1 {
		t.Fatalf("cache entries = %d, want 1", got)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	r := &gatedRunner{release: make(chan struct{}), verdict: core.Implied}
	s := New(Config{Runner: r.run, Sink: sink})
	p := presetProblem(t, "power")

	started := make(chan Response, 1)
	go func() {
		resp, err := s.Infer(p)
		if err != nil {
			t.Errorf("in-flight Infer: %v", err)
		}
		started <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader never started")
		}
		time.Sleep(time.Millisecond)
	}

	if n := s.BeginDrain(); n != 1 {
		t.Fatalf("BeginDrain reported %d in flight, want 1", n)
	}
	// New work is refused while draining.
	if _, err := s.Infer(presetProblem(t, "gap")); err != ErrDraining {
		t.Fatalf("draining request returned %v, want ErrDraining", err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before in-flight run finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(r.release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Shutdown never returned after release")
	}
	resp := <-started
	if resp.Source != "cold" || resp.Verdict != core.Implied {
		t.Fatalf("drained request got %+v", resp)
	}

	tot, err := obs.Replay(&trace)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if tot.ServeShutdowns != 1 || tot.ServeRequests != 1 || tot.ServeMisses != 1 {
		t.Fatalf("replayed totals %+v, want 1 shutdown / 1 request / 1 miss", tot)
	}
}

func TestShutdownCancelsOverdueRuns(t *testing.T) {
	// The runner only finishes when its governor context is cancelled —
	// the drain deadline must force that cancellation through rootCancel.
	r := func(ctx context.Context, _ *Problem, _ core.Budget) (CachedVerdict, error) {
		<-ctx.Done()
		return CachedVerdict{Verdict: core.Unknown}, nil
	}
	s := New(Config{Runner: r})
	done := make(chan struct{})
	go func() {
		_, _ = s.Infer(presetProblem(t, "power"))
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Inflight != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("cancelled run never returned")
	}
}

func TestTraceReplayMatchesCounters(t *testing.T) {
	// End-to-end with the REAL engines: the JSONL trace a mixed workload
	// produces must replay to exactly the counter totals the server kept.
	var trace bytes.Buffer
	sink := obs.NewJSONLSink(&trace)
	counters := obs.NewCounters()
	s := New(Config{Sink: sink, Counters: counters,
		RequestTimeout: 5 * time.Second})
	for _, preset := range []string{"power", "power", "gap", "power", "gap"} {
		if _, err := s.Infer(presetProblem(t, preset)); err != nil {
			t.Fatalf("infer %s: %v", preset, err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	tot, err := obs.Replay(&trace)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	check := func(name string, replayed int, counter string) {
		t.Helper()
		if int64(replayed) != counters.Get(counter) {
			t.Fatalf("%s: replayed %d, counter %s = %d",
				name, replayed, counter, counters.Get(counter))
		}
	}
	check("requests", tot.ServeRequests, "serve.requests")
	check("misses", tot.ServeMisses, "serve.cache_misses")
	check("hits", tot.ServeCacheHits, "serve.cache_hits")
	check("dedups", tot.ServeDedups, "serve.dedups")
	check("shutdowns", tot.ServeShutdowns, "serve.shutdowns")
	if tot.ServeRequests != 5 || tot.ServeMisses != 2 || tot.ServeCacheHits != 3 {
		t.Fatalf("totals %+v, want 5 requests / 2 misses / 3 hits", tot)
	}
	// Repeats must return the cold verdicts: replay per-request streams.
	if tot.ServeShutdowns != 1 {
		t.Fatalf("expected exactly one shutdown event, got %d", tot.ServeShutdowns)
	}
}

func TestRepeatVerdictMatchesColdRun(t *testing.T) {
	s := New(Config{RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())
	cold, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	warm, err := s.Infer(presetProblem(t, "twostep"))
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if warm.Source != "cache" {
		t.Fatalf("repeat source = %s", warm.Source)
	}
	if warm.Verdict != cold.Verdict || warm.Winner != cold.Winner {
		t.Fatalf("repeat verdict %v/%s differs from cold %v/%s",
			warm.Verdict, warm.Winner, cold.Verdict, cold.Winner)
	}
}

func TestHTTPSurface(t *testing.T) {
	counters := obs.NewCounters()
	s := New(Config{Counters: counters, RequestTimeout: 5 * time.Second})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp, m
	}

	// Preset request.
	resp, m := post(`{"preset":"power"}`)
	if resp.StatusCode != http.StatusOK || m["source"] != "cold" {
		t.Fatalf("preset: %d %v", resp.StatusCode, m)
	}
	// An explicit-presentation request equivalent to the preset must hit
	// the cache through canonicalization, even with renamed symbols and
	// without the zero equations spelled out (power is {A0·A0 = B} + zero
	// equations over {A0, B, 0}; rename B -> Q and 0 -> Z).
	resp, m = post(`{"alphabet":["A0","Q","Z"],"a0":"A0","zero":"Z",
		"equations":["A0 A0 = Q"]}`)
	if resp.StatusCode != http.StatusOK || m["source"] != "cache" {
		t.Fatalf("explicit twin: %d %v", resp.StatusCode, m)
	}
	// TD-mode request.
	// The goal is the dependency itself under renamed variables: trivially
	// implied, and the chase proves it within the default budget.
	resp, m = post(`{"schema":["A","B"],"deps":["R(x,y) & R(x,y2) -> R(x2,y)"],"goal":"R(a,b) & R(a,b2) -> R(a2,b)"}`)
	if resp.StatusCode != http.StatusOK || m["mode"] != "td" || m["verdict"] != "implied" {
		t.Fatalf("td: %d %v", resp.StatusCode, m)
	}
	// Malformed requests are 400s.
	for _, bad := range []string{
		`{`,
		`{"preset":"no-such-preset"}`,
		`{"preset":"power","goal":"(x)->(x)"}`,
		`{"schema":["A"],"deps":[],"goal":""}`,
		`{"unknown_field":1}`,
		`{"preset":"power","words":1}`,
		`{"preset":"chain:10000"}`,
	} {
		resp, _ := post(bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// Health and metrics.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr, err)
	}
	hr.Body.Close()
	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var metrics struct {
		Gauges   Stats            `json:"gauges"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&metrics); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	mr.Body.Close()
	if metrics.Gauges.Requests < 3 || metrics.Counters["serve.requests"] < 3 {
		t.Fatalf("metrics report %+v", metrics)
	}
}

// TestPresetCaps: each parameterized preset family is served up to its
// cap and refused one past it.
func TestPresetCaps(t *testing.T) {
	for _, tc := range []struct {
		family string
		max    int
	}{{"chain", 64}, {"nilpotent", 32}, {"tower", 32}, {"collapse", 4}} {
		admitted := fmt.Sprintf("%s:%d", tc.family, tc.max)
		if _, err := ParseRequest(Request{Preset: admitted}); err != nil {
			t.Errorf("%s refused: %v", admitted, err)
		}
		refused := fmt.Sprintf("%s:%d", tc.family, tc.max+1)
		if _, err := ParseRequest(Request{Preset: refused}); err == nil {
			t.Errorf("%s admitted", refused)
		}
	}
}

func TestCanonicalizationSharesCacheAcrossRenaming(t *testing.T) {
	// The load-bearing cache property end-to-end: an explicit presentation
	// with renamed symbols and shuffled, flipped equations hits the cache
	// line its twin populated.
	r := &gatedRunner{verdict: core.Unknown}
	s := New(Config{Runner: r.run})
	p1, err := ParseRequest(Request{Alphabet: []string{"A0", "Z", "B", "C"}, A0: "A0", Zero: "Z",
		Equations: []string{"A0 B = C", "C C = Z", "B A0 = B"}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseRequest(Request{Alphabet: []string{"X", "A0", "Y", "Z"}, A0: "A0", Zero: "Z",
		Equations: []string{"Z = X X", "Y A0 = Y", "A0 Y = X"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := s.Infer(p1); err != nil || resp.Source != "cold" {
		t.Fatalf("p1: %v %v", resp.Source, err)
	}
	resp, err := s.Infer(p2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != "cache" {
		t.Fatalf("renamed twin missed the cache (source=%s, keys %s vs %s)",
			resp.Source, p1.Key, p2.Key)
	}
	if r.count() != 1 {
		t.Fatalf("engine ran %d times", r.count())
	}
}
