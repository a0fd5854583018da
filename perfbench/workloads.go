package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"templatedep/internal/ring"
	"templatedep/internal/words"
)

// Workload sizes. The TD stream is the distinct-key TD instances of a
// 3000 random + 3000 oracle corpus (about 4,200 keys, four times the
// verdict cache); the hot-ring draw is small enough that every replica
// caches every key. Each cold pass sets a replica up setupRepeats times
// and keeps the last.
const (
	setupRepeats               = 5
	streamRandom, streamOracle = 3000, 3000
	ringRandom, ringOracle     = 600, 600
	ringDraw                   = 600
	ringTwinEvery              = 4
	ringWindow                 = time.Second
	ringSetups                 = 3
	ringRestarts               = 6
	coldRestarts               = 2
)

// Client counts: two kept td-stream and hot-ring throughput steadiest,
// one presets-cold.
const (
	streamClients  = 2
	presetsClients = 1
	ringClients    = 2
)

// ringAddrs are the replica addresses of the README's three-replica ring.
// Fixed addresses fix the ring's split of the key-space.
var ringAddrs = []string{"127.0.0.1:8081", "127.0.0.1:8082", "127.0.0.1:8083"}

// workloads maps each workload's name to its run; README.md says why each
// is there.
var workloads = map[string]func(*env) error{
	"td-stream":    tdStream,
	"presets-cold": presetsCold,
	"hot-ring":     hotRing,
}

// passes runs pass until the run's seconds are used up, at least min
// times, predicting each pass to take as long as the mean of the earlier
// ones.
func (e *env) passes(min int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if i >= min {
			spent := time.Since(start)
			if spent+spent/time.Duration(i) > e.seconds {
				return nil
			}
		}
		// A traced run alternates untraced and traced passes, so it
		// measures its own tracing overhead.
		e.tr.set(i%2 == 1)
		if err := pass(i); err != nil {
			return err
		}
	}
}

func (e *env) minPasses() int {
	if e.tr != nil {
		return 2
	}
	return 1
}

// coldPass is one pass of a single-replica workload: start a fresh
// replica, send every input once, then restart it over its store and
// replay every input from disk, coldRestarts times.
func (e *env) coldPass(what string, inputs []item, clients int, i int) error {
	var r *replica
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return err
			}
			e.cl.close()
			os.RemoveAll(r.dir)
		}
		var err error
		if r, err = e.freshReplica(fmt.Sprintf("%s-%d-%d", what, i, k)); err != nil {
			return err
		}
	}
	defer os.RemoveAll(r.dir)
	reps := []*replica{r}

	once := func(n int) (job, bool) { return job{item: n}, n < len(inputs) }
	ph := e.measure(0, func() []sample { return e.cl.run(clients, reps, inputs, once) })
	seen := tally{}
	def := int64(0)
	for _, s := range ph.samples {
		it := inputs[s.item]
		seen.add(s.source())
		if checkAnswer(&e.chk, it, s) {
			e.book.check(&e.chk, it, s)
			if definitive(s.verdict()) {
				def++
			}
		}
	}
	after, err := e.cl.counters(r.url)
	if err != nil {
		return err
	}
	checkCounters(&e.chk, fmt.Sprintf("%s pass %d", what, i), nil, after, seen, 0)
	e.m.addPhase(ph, def)
	e.layers.addPass(ph, e.tr.enabled())
	e.m.counts = append(e.m.counts, counts{
		EngineRuns: seen.cold + seen.warm, Definitive: def,
		StoreRecords: int64(r.st.Len()), PeerFills: after["serve.peer_fills"],
	})
	e.layers.addCounters(after, e.tr.enabled())
	if e.tr.enabled() {
		e.layers.certs(r, inputs, ph.samples)
	}
	if err := r.stop(); err != nil {
		return err
	}
	e.cl.close()

	for k := 0; k < coldRestarts; k++ {
		restart, replay, err := e.restartReplay(r, inputs, clients, originals(inputs))
		if err != nil {
			return err
		}
		e.m.addReplay(restart, replay)
	}
	return nil
}

// freshReplica starts a replica over an empty store on a free port and
// waits until it answers /healthz, booking the time as set-up.
func (e *env) freshReplica(name string) (*replica, error) {
	r := newReplica("127.0.0.1:0", filepath.Join(e.dir, name), e.tr)
	runtime.GC()
	t0 := time.Now()
	if _, err := r.start(); err != nil {
		return nil, err
	}
	if err := e.cl.healthy(r.url); err != nil {
		return nil, err
	}
	e.m.setup = append(e.m.setup, time.Since(t0))
	return r, nil
}

// restartReplay reopens r over its store, times how long it takes to
// answer its first request, then replays the inputs in keep, in order.
// Every answer must come from the store with its earlier verdict.
func (e *env) restartReplay(r *replica, inputs []item, clients int, keep []int) (time.Duration, phase, error) {
	reps := []*replica{r}
	runtime.GC()
	t0 := time.Now()
	open, err := r.start()
	if err != nil {
		return 0, phase{}, err
	}
	first := e.cl.run(1, reps, inputs, func(n int) (job, bool) { return job{item: keep[0]}, n == 0 })
	restart := time.Since(t0)
	rest := e.cl.run(clients, reps, inputs, func(n int) (job, bool) {
		if n+1 >= len(keep) {
			return job{}, false
		}
		return job{item: keep[n+1]}, true
	})
	ph := phase{samples: append(first, rest...), dur: time.Since(first[0].start)}
	seen := tally{}
	for _, s := range ph.samples {
		seen.add(s.source())
		checkReplay(&e.chk, inputs[s.item], s, e.book)
	}
	e.attempted += len(ph.samples)
	after, err := e.cl.counters(r.url)
	if err != nil {
		return 0, phase{}, err
	}
	checkCounters(&e.chk, "restarted "+r.url, nil, after, seen, 0)
	e.layers.opens = append(e.layers.opens, open)
	e.layers.recovered += after["store.recovered_records"]
	e.layers.addCounters(after, e.tr.enabled())
	e.layers.addReplay(ph, e.tr.enabled())
	if e.tr.enabled() {
		e.layers.certs(r, inputs, ph.samples)
	}
	if err := r.stop(); err != nil {
		return 0, phase{}, err
	}
	e.cl.close()
	return restart, ph, nil
}

// tdStream: a fresh replica gets every distinct-key TD instance of the
// corpus once, in an order drawn from the seed, from two clients; then it
// restarts over its log and every key is replayed from disk.
func tdStream(e *env) error {
	inputs, _, err := tdDraw(e.corpusSeed, streamRandom, streamOracle)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	e.stamp("inputs", len(inputs))
	e.stamp("clients", streamClients)
	return e.passes(e.minPasses(), func(i int) error {
		return e.coldPass("td-stream", inputs, streamClients, i)
	})
}

// presetsCold: the presets with distinct keys, each sent once to a fresh
// replica per pass by one client; then a restart and a replay of the 18
// keys from disk. The presets go in their documented order whatever the
// seed: with a heap this small the collector runs every few milliseconds,
// and reordering 18 requests moved single latencies by a fifth.
func presetsCold(e *env) error {
	inputs, err := presets()
	if err != nil {
		return err
	}
	e.stamp("inputs", len(inputs))
	e.stamp("clients", presetsClients)
	// A run's few hundred answers leave under ten beyond p99.
	e.m.tailQ = 0.95
	return e.passes(e.minPasses(), func(i int) error {
		return e.coldPass("presets-cold", inputs, presetsClients, i)
	})
}

// ringMix builds the hot-ring inputs: the first distinct TD keys of the
// corpus, the presets other than gap, and renamed twins of every preset
// and of every fourth TD, shuffled by seed. It returns the mix and the
// index of each key's original input, in name order.
func ringMix(corpusSeed, seed int64) ([]item, []int, error) {
	draw, ins, err := tdDraw(corpusSeed, ringRandom, ringOracle)
	if err != nil {
		return nil, nil, err
	}
	draw, ins = draw[:min(ringDraw, len(draw))], ins[:min(ringDraw, len(ins))]
	pre, err := presets("gap")
	if err != nil {
		return nil, nil, err
	}
	mix := append(append([]item(nil), draw...), pre...)
	rng := rand.New(rand.NewSource(seed))
	for k, in := range ins {
		if k%ringTwinEvery != 0 {
			continue
		}
		s, deps, goal, err := renameTD(rng, in.Schema, in.Deps, in.Goal)
		if err != nil {
			return nil, nil, err
		}
		t, err := twinOf(draw[k], tdRequest(s, deps, goal))
		if err != nil {
			return nil, nil, err
		}
		mix = append(mix, t)
	}
	for _, p := range pre {
		pres, err := words.Preset(strings.TrimPrefix(p.name, "preset:"))
		if err != nil {
			return nil, nil, err
		}
		twin, err := renamePresentation(rng, pres)
		if err != nil {
			return nil, nil, err
		}
		t, err := twinOf(p, presRequest(twin))
		if err != nil {
			return nil, nil, err
		}
		mix = append(mix, t)
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix, originals(mix), nil
}

// originals returns the index of every input that is not a renamed twin,
// ordered by name so the order does not depend on the seed.
func originals(inputs []item) []int {
	var out []int
	for k, it := range inputs {
		if !strings.HasPrefix(it.name, "twin:") {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(a, b int) bool { return inputs[out[a]].name < inputs[out[b]].name })
	return out
}

// ringSetup starts the ring over empty stores and sends each key to its
// owner, booking the time as set-up. It returns each replica's counters
// after the warm-up.
func (e *env) ringSetup(reps []*replica, mix []item, keys, owner []int) ([]map[string]int64, error) {
	runtime.GC()
	t0 := time.Now()
	for _, r := range reps {
		if _, err := r.start(); err != nil {
			return nil, err
		}
		if err := e.cl.healthy(r.url); err != nil {
			return nil, err
		}
	}
	warm := e.cl.run(ringClients, reps, mix, func(n int) (job, bool) {
		if n >= len(keys) {
			return job{}, false
		}
		return job{item: keys[n], rep: owner[keys[n]]}, true
	})
	e.m.setup = append(e.m.setup, time.Since(t0))
	seen := make([]tally, len(reps))
	for _, s := range warm {
		seen[s.rep].add(s.source())
		if checkAnswer(&e.chk, mix[s.item], s) {
			e.book.check(&e.chk, mix[s.item], s)
		}
	}
	e.attempted += len(warm)
	after := make([]map[string]int64, len(reps))
	for k, r := range reps {
		var err error
		if after[k], err = e.cl.counters(r.url); err != nil {
			return nil, err
		}
		checkCounters(&e.chk, "warm-up "+r.url, nil, after[k], seen[k], 0)
	}
	return after, nil
}

// hotRing: three replicas with stores at the README's addresses. Set-up
// sends each key to its ring owner; the timed phase repeats the mix
// round-robin across the replicas from two clients, so a replica's first
// request for a key it does not own is a peer fill and every later one a
// cache hit. Afterwards each replica restarts in turn and replays every
// key from disk.
func hotRing(e *env) error {
	mix, keys, err := ringMix(e.corpusSeed, e.seed)
	if err != nil {
		return err
	}
	urls := make([]string, len(ringAddrs))
	for k, a := range ringAddrs {
		urls[k] = "http://" + a
	}
	rg := ring.New(urls, 0)
	index := make(map[string]int, len(urls))
	for k, u := range urls {
		index[u] = k
	}
	owner := make([]int, len(mix))
	share := make([]int, len(urls))
	for k, it := range mix {
		owner[k] = index[rg.Owner(it.full)]
	}
	for _, k := range keys {
		share[owner[k]]++
	}
	e.stamp("inputs", len(mix))
	e.stamp("keys", len(keys))
	e.stamp("clients", ringClients)
	e.stamp("ring", urls)
	e.layers.ownerShares(share, len(keys))

	reps := make([]*replica, len(urls))
	for k, a := range ringAddrs {
		reps[k] = newReplica(a, filepath.Join(e.dir, fmt.Sprintf("hot-ring-%d", k)), e.tr)
		reps[k].peers = urls
	}
	defer func() {
		for _, r := range reps {
			os.RemoveAll(r.dir)
		}
	}()

	// Set-up: start the ring and warm each key at its owner, in name
	// order, several times over fresh stores; the last ring stays up.
	e.tr.set(false)
	var before []map[string]int64
	for k := 0; k < ringSetups; k++ {
		if k > 0 {
			for _, r := range reps {
				if err := r.stop(); err != nil {
					return err
				}
				os.RemoveAll(r.dir)
			}
			e.cl.close()
		}
		if before, err = e.ringSetup(reps, mix, keys, owner); err != nil {
			return err
		}
	}

	// Timed phase: at least one whole pass over the mix at every replica,
	// so that every replica fills every key it does not own whatever the
	// machine's speed, and the exact counts hold.
	start := time.Now()
	cycle := len(reps) * len(mix)
	next := func(n int) (job, bool) {
		el := time.Since(start)
		if el >= e.seconds && n >= cycle {
			return job{}, false
		}
		e.tr.set(int(el/ringWindow)%2 == 0)
		return job{item: (n / len(reps)) % len(mix), rep: n % len(reps)}, true
	}
	ph := e.measure(ringWindow, func() []sample { return e.cl.run(ringClients, reps, mix, next) })
	e.tr.set(false)
	seen := make([]tally, len(reps))
	incoming := make([]int64, len(reps))
	def := int64(0)
	for _, s := range ph.samples {
		it := mix[s.item]
		seen[s.rep].add(s.source())
		if !checkAnswer(&e.chk, it, s) {
			continue
		}
		e.book.check(&e.chk, it, s)
		if definitive(s.verdict()) {
			def++
		}
		if o := owner[s.item]; o != int(s.rep) {
			checkFill(&e.chk, it, s)
			if src := s.source(); src == "peer" || src == "cold" || src == "warm" {
				incoming[o]++
			}
		}
	}
	var c counts
	for k, r := range reps {
		after, err := e.cl.counters(r.url)
		if err != nil {
			return err
		}
		checkCounters(&e.chk, "hot-ring "+r.url, before[k], after, seen[k], incoming[k])
		for _, bad := range []string{"serve.peer_down", "serve.peer_rejected"} {
			if n := after[bad] - before[k][bad]; n > 0 {
				e.chk.fail("hot-ring %s: %s = %d", r.url, bad, n)
			}
		}
		c.EngineRuns += after["serve.cache_misses"]
		c.PeerFills += after["serve.peer_fills"]
		c.StoreRecords += int64(r.st.Len())
		delta := make(map[string]int64, len(after))
		for n, v := range after {
			delta[n] = v - before[k][n]
		}
		e.layers.addCounters(delta, true)
	}
	for _, k := range keys {
		if definitive(e.book[mix[k].key]) {
			c.Definitive++
		}
	}
	e.m.counts = append(e.m.counts, c)
	e.m.addLong(ph, def, start, ringWindow)
	if e.tr != nil {
		e.layers.splitWindows(ph, start, ringWindow)
		for _, r := range reps {
			e.layers.certs(r, mix, ph.samples)
		}
	}
	for _, r := range reps {
		if err := r.stop(); err != nil {
			return err
		}
	}
	e.cl.close()

	// Restart each replica in turn, the others down, and replay every key
	// from its store: owned keys were written at warm-up, the rest by
	// their peer fills.
	for k := 0; k < ringRestarts; k++ {
		for _, r := range reps {
			restart, replay, err := e.restartReplay(r, mix, ringClients, keys)
			if err != nil {
				return err
			}
			e.m.addReplay(restart, replay)
		}
	}
	return nil
}
