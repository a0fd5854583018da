// Shard harness for the sharded, persistent serving tier: `tdbench
// -shardjson FILE` self-hosts a 3-replica tdserve ring in-process (real
// TCP listeners, real peer-fill HTTP, one disk store per replica), drives
// a duplicate-heavy burst whose canonical key-space is split across the
// owners, then kills one replica, restarts it over its surviving store,
// and replays the keys it had answered — every one must come back with
// Source "store", without an engine run. The report (BENCH_serve.json in
// CI) carries per-shard hit/peer-fill counts, the restart-recovery
// outcome, and client-observed latency percentiles; `tdbench -checkserve
// FILE` validates it structurally.
//
// The harness is deliberately end-to-end: verdicts cross replica
// boundaries only as certificates that the receiving replica re-verifies,
// and restart warmth comes only from the append-log the killed process
// left behind — the two properties the sharded tier exists to provide.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"templatedep/internal/obs"
	"templatedep/internal/serve"
	"templatedep/internal/store"
)

// shardProblems is the burst mix: definitive and unknown verdicts, both
// problem modes, plus a renamed twin that must land on another problem's
// canonical owner. More problems than replicas, so every replica owns
// some keys and misses others.
func shardProblems() []serve.Request {
	return []serve.Request{
		{Preset: "power"},
		{Preset: "twostep"},
		{Preset: "gap"},
		{Preset: "chain:2"},
		{Preset: "chain:3"},
		{Preset: "nilpotent:2"},
		{Schema: []string{"A", "B", "C"}, Deps: []string{"join: R(a, b, c) & R(a, b', c') -> R(a, b, c')"},
			Goal: "R(a, b, c) & R(a, b', c') & R(a, b'', c'') -> R(a, b, c'')"},
		{Alphabet: []string{"A0", "Q", "Z"}, A0: "A0", Zero: "Z", Equations: []string{"A0 A0 = Q"}},
	}
}

// replica is one in-process ring member: a serve.Server with its own disk
// store and counters behind a real TCP listener, so peer fill runs over
// actual HTTP.
type replica struct {
	self     string
	addr     string
	storeDir string
	counters *obs.Counters
	st       *store.Store
	s        *serve.Server
	httpSrv  *http.Server
}

// start opens (or reopens) the replica's store and begins serving on addr
// (":0" picks a port on first start; restarts rebind the recorded addr so
// peer URLs stay valid).
func (r *replica) start(peers []string) error {
	st, err := store.Open(store.DefaultPath(r.storeDir), store.Options{
		Sink: obs.NewCounterSink(r.counters),
	})
	if err != nil {
		return err
	}
	r.st = st
	r.s = serve.New(serve.Config{
		RequestTimeout: 30 * time.Second,
		Counters:       r.counters,
		Store:          st,
		Peers:          peers,
		Self:           r.self,
		PeerTimeout:    5 * time.Second,
	})
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		return err
	}
	r.addr = ln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.s.Handler()}
	go r.httpSrv.Serve(ln)
	return nil
}

// kill tears the replica down the hard-ish way: the listener drops
// immediately (peers start seeing "down"), in-flight runs drain, and the
// store handle closes. What persists is exactly the append-log.
func (r *replica) kill() error {
	r.httpSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.s.Shutdown(ctx)
	return r.st.Close()
}

type shardPhase struct {
	Requests  int     `json:"requests"`
	Cold      int     `json:"cold"`
	CacheHits int     `json:"cache_hits"`
	Dedups    int     `json:"dedups"`
	StoreHits int     `json:"store_hits"`
	PeerFills int     `json:"peer_fills"`
	HitRate   float64 `json:"hit_rate"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

type shardShard struct {
	URL         string  `json:"url"`
	Requests    int64   `json:"requests"`
	CacheMisses int64   `json:"cache_misses"`
	CacheHits   int64   `json:"cache_hits"`
	StoreHits   int64   `json:"store_hits"`
	PeerFills   int64   `json:"peer_fills"`
	PeerOK      int64   `json:"peer_ok"`
	StorePuts   int64   `json:"store_puts"`
	HitRate     float64 `json:"hit_rate"`
}

type shardRestart struct {
	// Replica is the index of the killed-and-restarted ring member;
	// RecoveredRecords is what its store replayed on reopen.
	Replica          int `json:"replica"`
	RecoveredRecords int `json:"recovered_records"`
	// RepeatedKeys is how many previously-answered problems were replayed
	// at it; StoreHits of them were answered from the disk store and
	// Recomputes ran an engine (the acceptance gate demands 0).
	RepeatedKeys int `json:"repeated_keys"`
	StoreHits    int `json:"store_hits"`
	Recomputes   int `json:"recomputes"`
}

type shardReport struct {
	reportHost
	Replicas int          `json:"replicas"`
	Problems int          `json:"problems"`
	Burst    shardPhase   `json:"burst"`
	PerShard []shardShard `json:"per_shard"`
	Restart  shardRestart `json:"restart"`
	// PeerFillsTotal / PeerOKTotal aggregate the ring's fill attempts and
	// adoptions over the whole run (attempts also count down/unknown/
	// rejected probes, so attempts >= adoptions always).
	PeerFillsTotal int64 `json:"peer_fills_total"`
	PeerOKTotal    int64 `json:"peer_ok_total"`
}

func writeShardJSON(path string, quick bool) {
	fail := reportFail("shard")
	reportProbe(path, fail)

	const nReplicas = 3
	rounds := 6 // burst rounds over the problem mix
	if quick {
		rounds = 3
	}
	baseDir, err := os.MkdirTemp("", "tdshard")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(baseDir)

	// Bind listeners first so every replica knows the full peer list at
	// construction; :0 picks ports, then the recorded addresses are final.
	replicas := make([]*replica, nReplicas)
	peers := make([]string, nReplicas)
	for i := range replicas {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("%v", err)
		}
		addr := ln.Addr().String()
		ln.Close() // start() rebinds; the port stays ours in practice
		dir := fmt.Sprintf("%s/replica%d", baseDir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fail("%v", err)
		}
		replicas[i] = &replica{
			self:     "http://" + addr,
			addr:     addr,
			storeDir: dir,
			counters: obs.NewCounters(),
		}
		peers[i] = replicas[i].self
	}
	for _, r := range replicas {
		if err := r.start(peers); err != nil {
			fail("start %s: %v", r.self, err)
		}
	}
	defer func() {
		for _, r := range replicas {
			if r.httpSrv != nil {
				r.httpSrv.Close()
			}
		}
	}()

	problems := shardProblems()
	bodies := make([][]byte, len(problems))
	for i, p := range problems {
		b, err := json.Marshal(p)
		if err != nil {
			fail("marshal problem %d: %v", i, err)
		}
		bodies[i] = b
	}
	client := &http.Client{Timeout: 60 * time.Second}
	ask := func(replicaIdx, problemIdx int) (serve.Response, float64) {
		start := time.Now()
		httpRes, err := client.Post(replicas[replicaIdx].self+"/infer",
			"application/json", bytes.NewReader(bodies[problemIdx]))
		if err != nil {
			fail("replica %d problem %d: %v", replicaIdx, problemIdx, err)
		}
		defer httpRes.Body.Close()
		var res serve.Response
		if err := json.NewDecoder(httpRes.Body).Decode(&res); err != nil || httpRes.StatusCode != http.StatusOK {
			fail("replica %d problem %d: status %d decode %v", replicaIdx, problemIdx, httpRes.StatusCode, err)
		}
		return res, float64(time.Since(start).Microseconds()) / 1e3
	}

	// Phase 1 — duplicate-heavy burst, keys split across owners: every
	// round sends every problem to every replica, so each key is answered
	// once by its owner (cold), adopted by the others (peer), and then
	// repeats hit local caches.
	rep := shardReport{
		reportHost: newReportHost(),
		Replicas:   nReplicas,
		Problems:   len(problems),
	}
	var latencies []float64
	verdictFor := map[string]string{}
	askedOf := make([]map[int]bool, nReplicas) // problems each replica answered
	for i := range askedOf {
		askedOf[i] = map[int]bool{}
	}
	for round := 0; round < rounds; round++ {
		for pi := range problems {
			for ri := range replicas {
				res, lat := ask(ri, pi)
				rep.Burst.Requests++
				latencies = append(latencies, lat)
				askedOf[ri][pi] = true
				if prev, ok := verdictFor[res.Key]; ok && prev != res.Verdict.String() {
					fail("key %s: verdict flipped across replicas/rounds (%s then %s)", res.Key, prev, res.Verdict)
				}
				verdictFor[res.Key] = res.Verdict.String()
				switch res.Source {
				case "cold":
					rep.Burst.Cold++
				case "cache":
					rep.Burst.CacheHits++
				case "dedup":
					rep.Burst.Dedups++
				case "store":
					rep.Burst.StoreHits++
				case "peer":
					rep.Burst.PeerFills++
				default:
					fail("unknown source %q", res.Source)
				}
			}
		}
	}
	rep.Burst.HitRate = float64(rep.Burst.CacheHits+rep.Burst.Dedups+rep.Burst.StoreHits) /
		float64(rep.Burst.Requests)
	sort.Float64s(latencies)
	pct := func(p float64) float64 { return latencies[int(p*float64(len(latencies)-1))] }
	rep.Burst.P50MS, rep.Burst.P90MS, rep.Burst.P99MS = pct(0.50), pct(0.90), pct(0.99)
	rep.Burst.MaxMS = latencies[len(latencies)-1]

	// Phase 2 — kill one replica and restart it over its surviving store.
	// While it is down its peers keep answering (their ring probes fail
	// fast to local computes), which the -checkserve gate does not need to
	// see — the restart-warm property is the acceptance criterion.
	victim := nReplicas - 1
	if err := replicas[victim].kill(); err != nil {
		fail("kill replica %d: %v", victim, err)
	}
	// One mid-outage probe per problem at a survivor: the ring must keep
	// answering with the victim down.
	for pi := range problems {
		if res, _ := ask(0, pi); res.Verdict.String() == "" {
			fail("survivor returned empty verdict during outage")
		}
	}
	recoverBase := replicas[victim].counters.Get("store.recovered_records")
	if err := replicas[victim].start(peers); err != nil {
		fail("restart replica %d: %v", victim, err)
	}
	rep.Restart.Replica = victim
	rep.Restart.RecoveredRecords = int(replicas[victim].counters.Get("store.recovered_records") - recoverBase)
	if rep.Restart.RecoveredRecords == 0 {
		fail("restarted replica recovered 0 records — write-through never reached disk")
	}

	// Phase 3 — replay every problem the victim had answered before the
	// kill, at the victim. Its in-memory cache died with the process, so
	// the only non-engine path is the disk store: the first repeat of each
	// canonical key must come back Source "store" with zero engine runs.
	// Problems that canonicalize to an already-replayed key (the renamed
	// twin shares the power preset's key) legitimately hit the in-memory
	// cache the first replay just repopulated, so RepeatedKeys counts
	// unique keys, not problems.
	missBase := replicas[victim].counters.Get("serve.cache_misses")
	replayed := make(map[string]bool)
	for pi := range problems {
		if !askedOf[victim][pi] {
			continue
		}
		res, _ := ask(victim, pi)
		if prev := verdictFor[res.Key]; prev != res.Verdict.String() {
			fail("key %s: restart flipped the verdict (%s then %s)", res.Key, prev, res.Verdict)
		}
		if replayed[res.Key] {
			continue
		}
		replayed[res.Key] = true
		rep.Restart.RepeatedKeys++
		if res.Source == "store" {
			rep.Restart.StoreHits++
		}
	}
	rep.Restart.Recomputes = int(replicas[victim].counters.Get("serve.cache_misses") - missBase)
	if rep.Restart.StoreHits != rep.Restart.RepeatedKeys {
		fail("restart-warm recovery incomplete: %d of %d repeated keys served from the store",
			rep.Restart.StoreHits, rep.Restart.RepeatedKeys)
	}
	if rep.Restart.Recomputes != 0 {
		fail("restarted replica re-ran %d engines for keys its store already answers", rep.Restart.Recomputes)
	}

	for _, r := range replicas {
		misses := r.counters.Get("serve.cache_misses")
		requests := r.counters.Get("serve.requests")
		hits := r.counters.Get("serve.cache_hits")
		sh := shardShard{
			URL:         r.self,
			Requests:    requests,
			CacheMisses: misses,
			CacheHits:   hits,
			StoreHits:   r.counters.Get("serve.store_hits"),
			PeerFills:   r.counters.Get("serve.peer_fills"),
			PeerOK:      r.counters.Get("serve.peer_ok"),
			StorePuts:   r.counters.Get("store.puts"),
		}
		if requests > 0 {
			sh.HitRate = float64(hits+sh.StoreHits) / float64(requests)
		}
		rep.PerShard = append(rep.PerShard, sh)
		rep.PeerFillsTotal += sh.PeerFills
		rep.PeerOKTotal += sh.PeerOK
	}
	if rep.PeerOKTotal == 0 {
		fail("no peer fill was ever adopted — the ring is not sharing verdicts")
	}

	for _, r := range replicas {
		r.kill()
	}

	reportWrite(path, rep, fail)
	fmt.Printf("shard: %d replicas x %d problems x %d rounds: burst hit_rate=%.2f peer_ok=%d; restart: %d records recovered, %d/%d repeats from store, %d recomputes\n",
		nReplicas, len(problems), rounds, rep.Burst.HitRate, rep.PeerOKTotal,
		rep.Restart.RecoveredRecords, rep.Restart.StoreHits, rep.Restart.RepeatedKeys, rep.Restart.Recomputes)
	fmt.Printf("wrote %s\n", path)
}

// checkServeJSON validates a -shardjson report: structure, internal
// consistency, and the acceptance gates (peer fills adopted, restart
// answered from the store without recompute). Used by ci.sh on the
// committed BENCH_serve.json.
func checkServeJSON(path string) {
	fail := reportFail("checkserve: " + path)
	var rep shardReport
	reportRead(path, &rep, true, fail)
	if rep.Replicas != 3 {
		fail("replicas = %d, want 3", rep.Replicas)
	}
	if rep.Problems <= rep.Replicas {
		fail("problems = %d: need more problems than replicas for the key-space split to mean anything", rep.Problems)
	}
	b := rep.Burst
	if b.Requests <= 0 {
		fail("burst carries no requests")
	}
	if got := b.Cold + b.CacheHits + b.Dedups + b.StoreHits + b.PeerFills; got != b.Requests {
		fail("burst sources sum to %d of %d requests", got, b.Requests)
	}
	if b.HitRate <= 0 || b.HitRate >= 1 {
		fail("burst hit_rate = %v, want strictly between 0 and 1 (some colds, mostly repeats)", b.HitRate)
	}
	if !(b.P50MS > 0 && b.P50MS <= b.P90MS && b.P90MS <= b.P99MS && b.P99MS <= b.MaxMS) {
		fail("latency percentiles not ordered: p50=%v p90=%v p99=%v max=%v", b.P50MS, b.P90MS, b.P99MS, b.MaxMS)
	}
	if len(rep.PerShard) != rep.Replicas {
		fail("per_shard has %d entries for %d replicas", len(rep.PerShard), rep.Replicas)
	}
	var fills, oks, puts int64
	for i, sh := range rep.PerShard {
		if sh.URL == "" {
			fail("shard %d has no URL", i)
		}
		if sh.Requests <= 0 {
			fail("shard %d (%s) answered no requests — the burst did not split", i, sh.URL)
		}
		if sh.PeerOK > sh.PeerFills {
			fail("shard %d adopted more fills than it attempted (%d > %d)", i, sh.PeerOK, sh.PeerFills)
		}
		fills += sh.PeerFills
		oks += sh.PeerOK
		puts += sh.StorePuts
	}
	if fills != rep.PeerFillsTotal || oks != rep.PeerOKTotal {
		fail("peer totals disagree with per-shard sums (%d/%d vs %d/%d)",
			rep.PeerFillsTotal, rep.PeerOKTotal, fills, oks)
	}
	if oks == 0 {
		fail("no peer fill was adopted anywhere in the ring")
	}
	if puts == 0 {
		fail("no verdict was ever written through to a store")
	}
	r := rep.Restart
	if r.Replica < 0 || r.Replica >= rep.Replicas {
		fail("restart.replica = %d out of range", r.Replica)
	}
	if r.RecoveredRecords <= 0 {
		fail("restart recovered no records")
	}
	if r.RepeatedKeys <= 0 {
		fail("restart phase repeated no keys")
	}
	if r.StoreHits != r.RepeatedKeys {
		fail("restart served %d of %d repeats from the store", r.StoreHits, r.RepeatedKeys)
	}
	if r.Recomputes != 0 {
		fail("restart re-ran %d engines", r.Recomputes)
	}
	fmt.Printf("checkserve: %s ok (%d replicas, %d burst requests, hit_rate=%.2f, peer_ok=%d, restart %d/%d from store)\n",
		path, rep.Replicas, b.Requests, b.HitRate, rep.PeerOKTotal, r.StoreHits, r.RepeatedKeys)
}
