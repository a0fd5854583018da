package main

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"templatedep/internal/core"
	"templatedep/internal/serve"
)

// Each check is fed a known-bad input and must report exactly one failed
// operation; the matching good input must report none. A check that
// passes a bad input silently would let the benchmark time wrong answers.

func answer(key, source string, v core.Verdict) sample {
	return sample{key: key, src: code(sourceNames, source), vrd: code(verdictNames, v.String())}
}

func wantFailures(t *testing.T, c *checker, n int) {
	t.Helper()
	if c.failed != n {
		t.Fatalf("failed = %d, want %d (notes %q)", c.failed, n, c.notes)
	}
}

func TestCheckAnswerFlippedVerdict(t *testing.T) {
	oracle := item{name: "oracle/001", key: "k1", truth: implied}
	var c checker
	checkAnswer(&c, oracle, answer("k1", "cold", core.FiniteCounterexample))
	wantFailures(t, &c, 1)

	// Unknown does not contradict ground truth; agreement passes.
	c = checker{}
	checkAnswer(&c, oracle, answer("k1", "cold", core.Unknown))
	checkAnswer(&c, oracle, answer("k1", "cold", core.Implied))
	wantFailures(t, &c, 0)
}

func TestCheckAnswerPresetDocumentedVerdict(t *testing.T) {
	power := item{name: "preset:power", key: "kp", truth: finite, exact: true}
	gap := item{name: "preset:gap", key: "kg", truth: unknown, exact: true}
	var c checker
	checkAnswer(&c, power, answer("kp", "cold", core.Unknown))
	checkAnswer(&c, gap, answer("kg", "cold", core.Implied))
	wantFailures(t, &c, 2)

	c = checker{}
	checkAnswer(&c, power, answer("kp", "cold", core.FiniteCounterexample))
	checkAnswer(&c, gap, answer("kg", "cold", core.Unknown))
	wantFailures(t, &c, 0)
}

func TestCheckAnswerFailedRequest(t *testing.T) {
	var c checker
	s := answer("k1", "cold", core.Implied)
	s.err = errors.New("POST /infer: 500 Internal Server Error")
	checkAnswer(&c, item{name: "random/003", key: "k1"}, s)
	wantFailures(t, &c, 1)
}

func TestTwinMismatchedKey(t *testing.T) {
	orig, err := newItem("preset:power", serve.Request{Preset: "power"})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := twinOf(orig, serve.Request{Preset: "twostep"})
	if err != nil {
		t.Fatal(err)
	}
	if twin.key != orig.key {
		t.Fatalf("twin carries key %s, want its original's %s", twin.key, orig.key)
	}
	// The server answers the mismatched twin under its own key.
	p, err := serve.ParseRequest(serve.Request{Preset: "twostep"})
	if err != nil {
		t.Fatal(err)
	}
	var c checker
	checkAnswer(&c, twin, answer(p.Hash, "cold", core.Implied))
	wantFailures(t, &c, 1)
}

func TestVerdictBookRepeatDisagrees(t *testing.T) {
	it := item{name: "random/007", key: "k7"}
	b := verdictBook{}
	var c checker
	b.check(&c, it, answer("k7", "cold", core.Implied))
	b.check(&c, it, answer("k7", "cache", core.Implied))
	wantFailures(t, &c, 0)
	b.check(&c, it, answer("k7", "cache", core.Unknown))
	wantFailures(t, &c, 1)
}

func TestCheckReplay(t *testing.T) {
	it := item{name: "oracle/002", key: "k2"}
	before := verdictBook{"k2": implied}
	var c checker
	checkReplay(&c, it, answer("k2", "store", core.Implied), before)
	wantFailures(t, &c, 0)
	checkReplay(&c, it, answer("k2", "cold", core.Implied), before)
	wantFailures(t, &c, 1)
	checkReplay(&c, it, answer("k2", "store", core.Unknown), before)
	wantFailures(t, &c, 2)
}

func TestCheckFillUnadopted(t *testing.T) {
	it := item{name: "preset:chain:3", key: "kc"}
	var c checker
	checkFill(&c, it, answer("kc", "peer", core.Implied))
	checkFill(&c, it, answer("kc", "cache", core.Implied))
	// An unknown is never adopted from a peer, so recomputing it is right.
	checkFill(&c, it, answer("kc", "cold", core.Unknown))
	wantFailures(t, &c, 0)
	checkFill(&c, it, answer("kc", "cold", core.Implied))
	wantFailures(t, &c, 1)
}

func TestCheckCounters(t *testing.T) {
	seen := tally{requests: 5, cold: 2, cache: 2, peer: 1}
	good := map[string]int64{
		"serve.requests": 7, "serve.cache_misses": 2, "serve.cache_hits": 4, "serve.peer_ok": 1,
	}
	var c checker
	// Two peer fills arrived from other replicas and hit the cache.
	checkCounters(&c, "r", nil, good, seen, 2)
	wantFailures(t, &c, 0)

	// The counters claim an engine run the clients never saw.
	drift := map[string]int64{
		"serve.requests": 5, "serve.cache_misses": 3, "serve.cache_hits": 1, "serve.peer_ok": 1,
	}
	c = checker{}
	checkCounters(&c, "r", nil, drift, seen, 0)
	if c.failed == 0 {
		t.Fatal("counter drift passed")
	}
}

func TestCountDrift(t *testing.T) {
	a := counts{EngineRuns: 4183, Definitive: 4181, StoreRecords: 4183}
	b := a
	b.EngineRuns++
	var c checker
	checkCounts(&c, "pass 1", a, a)
	wantFailures(t, &c, 0)
	checkCounts(&c, "pass 1", b, a)
	wantFailures(t, &c, 1)

	path := filepath.Join(t.TempDir(), "counts", "td-stream.json")
	c = checker{}
	if err := checkRecorded(&c, path, a); err != nil {
		t.Fatal(err)
	}
	if err := checkRecorded(&c, path, a); err != nil {
		t.Fatal(err)
	}
	wantFailures(t, &c, 0)
	if err := checkRecorded(&c, path, b); err != nil {
		t.Fatal(err)
	}
	wantFailures(t, &c, 1)
}

// The renamings the twins use must keep the canonical key: a twin that
// drifted would fail every hot-ring run.
func TestRenamedTwinsKeepTheKey(t *testing.T) {
	mix, keys, err := ringMix(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	twins := 0
	for _, it := range mix {
		p, err := serve.ParseRequest(requestOf(t, it))
		if err != nil {
			t.Fatal(err)
		}
		if p.Hash != it.key {
			t.Fatalf("%s: canonical key %s, want %s", it.name, p.Hash, it.key)
		}
		if strings.HasPrefix(it.name, "twin:") {
			twins++
		}
	}
	if twins == 0 || len(keys)+twins != len(mix) {
		t.Fatalf("%d inputs, %d keys, %d twins", len(mix), len(keys), twins)
	}
}

func requestOf(t *testing.T, it item) serve.Request {
	t.Helper()
	var r serve.Request
	if err := json.Unmarshal(it.body, &r); err != nil {
		t.Fatal(err)
	}
	return r
}
