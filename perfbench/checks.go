package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// checker counts failed operations. Every check below reports through it;
// a run with any failure prints correct=false.
type checker struct {
	failed int
	notes  []string
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func definitive(v string) bool { return v == implied || v == finite }

// checkAnswer checks one answer against its input: the request succeeded,
// the key is the input's canonical key, and the verdict agrees with the
// input's ground truth (corpus oracle or documented preset verdict). An
// oracle input may still answer unknown — only a contradiction fails.
func checkAnswer(c *checker, it item, s sample) bool {
	switch v := s.verdict(); {
	case s.err != nil:
		c.fail("%s: request failed: %v", it.name, s.err)
	case s.key != it.key:
		c.fail("%s: answered with key %s, want %s", it.name, s.key, it.key)
	case s.source() == "" || v == "":
		c.fail("%s: answer with an unknown source or verdict", it.name)
	case it.exact && v != it.truth:
		c.fail("%s: verdict %s, documented %s", it.name, v, it.truth)
	case it.truth != "" && definitive(v) && v != it.truth:
		c.fail("%s: verdict %s contradicts ground truth %s", it.name, v, it.truth)
	default:
		return true
	}
	return false
}

// verdictBook remembers the first verdict seen for each key; a repeat, a
// renamed twin or a later pass that answers differently fails.
type verdictBook map[string]string

func (b verdictBook) check(c *checker, it item, s sample) {
	v := s.verdict()
	if old, ok := b[it.key]; !ok {
		b[it.key] = v
	} else if old != v {
		c.fail("%s: verdict %s, earlier answer for key %s was %s", it.name, v, it.key, old)
	}
}

// checkReplay checks a post-restart answer: it must come from the store
// with the verdict the key had before the restart.
func checkReplay(c *checker, it item, s sample, before verdictBook) {
	if !checkAnswer(c, it, s) {
		return
	}
	if s.source() != "store" {
		c.fail("%s: replayed after restart from %q, want the store", it.name, s.source())
	}
	if want, ok := before[it.key]; !ok || want != s.verdict() {
		c.fail("%s: replayed verdict %s, before the restart %q", it.name, s.verdict(), want)
	}
}

// checkFill checks an answer from a replica that does not own the key:
// a definitive verdict must have been adopted from the owner (or already
// be cached there), never recomputed.
func checkFill(c *checker, it item, s sample) {
	if !definitive(s.verdict()) {
		return
	}
	if src := s.source(); src == "cold" || src == "warm" || src == "store" {
		c.fail("%s: non-owner answered a definitive key from %q: peer fill not adopted", it.name, src)
	}
}

// tally counts answers by source, as the client saw them.
type tally struct {
	requests, cold, warm, cache, dedup, store, peer int64
}

func (t *tally) add(src string) {
	t.requests++
	switch src {
	case "cold":
		t.cold++
	case "warm":
		t.warm++
	case "cache":
		t.cache++
	case "dedup":
		t.dedup++
	case "store":
		t.store++
	case "peer":
		t.peer++
	}
}

// checkCounters compares a replica's /metrics counter deltas with the
// sources its clients saw. incoming is the number of peer fills other
// replicas sent it: those are requests too, answered from some source the
// clients never see, so each source counter may exceed the client's count
// by exactly that many in total.
func checkCounters(c *checker, who string, before, after map[string]int64, seen tally, incoming int64) {
	d := func(name string) int64 { return after[name] - before[name] }
	if got := d("serve.requests"); got != seen.requests+incoming {
		c.fail("%s: /metrics serve.requests moved %d, clients sent %d and peers %d", who, got, seen.requests, incoming)
	}
	if got := d("serve.peer_ok"); got != seen.peer {
		c.fail("%s: /metrics serve.peer_ok moved %d, clients saw %d peer answers", who, got, seen.peer)
	}
	extra := int64(0)
	for _, s := range []struct {
		name string
		seen int64
	}{
		{"serve.cache_misses", seen.cold + seen.warm},
		{"serve.warm", seen.warm},
		{"serve.cache_hits", seen.cache},
		{"serve.dedups", seen.dedup},
		{"serve.store_hits", seen.store},
	} {
		got := d(s.name)
		if got < s.seen {
			c.fail("%s: /metrics %s moved %d, clients saw %d", who, s.name, got, s.seen)
		}
		if s.name != "serve.warm" {
			extra += got - s.seen
		}
	}
	if extra != incoming {
		c.fail("%s: /metrics source counters exceed the clients' view by %d, peers sent %d", who, extra, incoming)
	}
}

// counts are the exact counts of one pass: they depend on the inputs only,
// so they repeat across passes and runs of the same code. Between two
// clients only cache hits and dedups may trade places, and neither is
// counted here.
type counts struct {
	EngineRuns   int64 `json:"engine_runs"`
	Definitive   int64 `json:"definitive"`
	StoreRecords int64 `json:"store_records"`
	PeerFills    int64 `json:"peer_fills"`
}

func checkCounts(c *checker, what string, got, want counts) {
	if got != want {
		c.fail("%s: exact counts %+v differ from %+v", what, got, want)
	}
}

// checkRecorded compares got with the counts an earlier run of the same
// binary, workload and seed recorded at path, and records them when no
// earlier run did.
func checkRecorded(c *checker, path string, got counts) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(got)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var want counts
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	checkCounts(c, "against an earlier run", got, want)
	return nil
}
