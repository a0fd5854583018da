package main

import "time"

// The portfolio's arms, in the order it visits them.
var arms = []string{"kb", "chase", "eid", "model-search", "finite-db"}

// layers accumulates what the per-layer metrics are computed from: the
// client samples of traced stretches (the root spans), the spans recorded
// under them, the program's own counters, and the timings taken directly.
type layers struct {
	traced   []sample
	src      tally // answers by source, over the stretches the counters cover
	spans    []span
	certDur  map[genKey]time.Duration
	counters map[string]int64
	// passes is how many traced passes the counters add up (0 for a run
	// whose counters cover one timed phase).
	passes int
	// opens are the store.Open times of restarts over a log, recovered
	// the records those restarts read back.
	opens     []time.Duration
	recovered int64
	gcs       uint32
	gcPause   time.Duration
	// Throughput with tracing on and off, for the tracing overhead.
	onN, offN     int
	onDur, offDur time.Duration
	shareMax      float64
	shareMin      float64
}

type genKey struct {
	gen int
	id  string
}

func newLayers() *layers {
	return &layers{certDur: make(map[genKey]time.Duration), counters: make(map[string]int64), shareMax: 1, shareMin: 1}
}

// addPass books a cold pass's timed phase as traced or untraced.
func (l *layers) addPass(ph phase, traced bool) {
	if !traced {
		l.offN += len(ph.samples)
		l.offDur += ph.dur
		return
	}
	l.onN += len(ph.samples)
	l.onDur += ph.dur
	l.passes++
	l.addTraced(ph.samples)
	l.gcs += ph.gcs
	l.gcPause += ph.gcPause
}

// addReplay books a replay's samples when traced.
func (l *layers) addReplay(ph phase, traced bool) {
	if traced {
		l.addTraced(ph.samples)
	}
}

func (l *layers) addTraced(ss []sample) {
	l.traced = append(l.traced, ss...)
	for _, s := range ss {
		l.src.add(s.source())
	}
}

// splitWindows books a timed phase whose tracing alternated in windows of
// the given length from start, traced first. Requests wholly inside a
// traced window are root spans. The first two windows, where the peer
// fills happen, are left out of the traced/untraced throughput
// comparison: only the first of them is traced.
func (l *layers) splitWindows(ph phase, start time.Time, window time.Duration) {
	widx := func(t time.Time) int { return int(t.Sub(start) / window) }
	full := int(ph.dur / window)
	for w := 2; w < full; w++ {
		if w%2 == 0 {
			l.onDur += window
		} else {
			l.offDur += window
		}
	}
	for _, s := range ph.samples {
		l.src.add(s.source())
		w := widx(s.start)
		if w >= 2 && w < full {
			if w%2 == 0 {
				l.onN++
			} else {
				l.offN++
			}
		}
		if w%2 == 0 && widx(s.start.Add(s.lat)) == w {
			l.traced = append(l.traced, s)
		}
	}
	l.gcs += ph.gcs
	l.gcPause += ph.gcPause
}

// addCounters adds a replica's counter deltas when traced.
func (l *layers) addCounters(delta map[string]int64, traced bool) {
	if !traced {
		return
	}
	for k, v := range delta {
		l.counters[k] += v
	}
}

// certs times cert.Check on the stored certificate of every answer in
// samples that the server checked (cold, warm, store and peer answers with
// a definitive verdict), at replica r.
func (l *layers) certs(r *replica, inputs []item, samples []sample) {
	keys := make(map[string]string)
	for _, s := range samples {
		if int(s.gen) == r.gen && serverChecked(s) {
			keys[s.key] = inputs[s.item].full
		}
	}
	for hash, d := range certTimes(r, keys) {
		l.certDur[genKey{r.gen, hash}] = d
	}
}

func serverChecked(s sample) bool {
	switch s.source() {
	case "cold", "warm", "store", "peer":
		return s.err == nil && definitive(s.verdict())
	}
	return false
}

func (l *layers) ownerShares(share []int, keys int) {
	l.shareMax, l.shareMin = 0, 1
	for _, n := range share {
		f := float64(n) / float64(keys)
		l.shareMax, l.shareMin = max(l.shareMax, f), min(l.shareMin, f)
	}
}

// selfTimes splits the traced client latency into each layer's self time:
// a layer's span minus the part its child spans cover. The handler parses
// the body itself; the middleware times serve.ParseRequest on a copy just
// before, so that copy's time stands in for the handler's own parse and is
// left out of the total as tracing overhead.
func (l *layers) selfTimes() (map[string]time.Duration, time.Duration, []float64, []float64) {
	handler := make(map[genKey]span)
	parse := make(map[genKey]span)
	engine := make(map[genKey]span)
	hop := make(map[genKey]span)
	leases := make(map[genKey]time.Duration)
	for _, s := range l.spans {
		switch s.kind {
		case spanHandler:
			if !s.fill {
				handler[genKey{s.gen, s.req}] = s
			}
		case spanParse:
			parse[genKey{s.gen, s.req}] = s
		case spanEngine:
			engine[genKey{s.gen, s.key}] = s
		case spanHop:
			hop[genKey{s.gen, s.key}] = s
		case spanLease:
			leases[genKey{s.gen, s.req}] += s.dur()
		}
	}
	self := make(map[string]time.Duration)
	var total time.Duration
	var server, transport []float64
	for _, s := range l.traced {
		if s.err != nil {
			continue
		}
		h, ok := handler[genKey{int(s.gen), s.req}]
		if !ok {
			continue
		}
		p := parse[genKey{int(s.gen), s.req}]
		server = append(server, float64(s.elapsed))
		transport = append(transport, ms(s.lat)-float64(s.elapsed))
		byKey := genKey{int(s.gen), s.key}
		var eng, lease, hp, ce time.Duration
		if src := s.source(); src == "cold" || src == "warm" {
			if es, ok := engine[byKey]; ok {
				eng = es.dur()
				lease = leases[genKey{int(s.gen), s.req}]
			}
		}
		if src := s.source(); src == "peer" || src == "cold" || src == "warm" {
			if hs, ok := hop[byKey]; ok {
				hp = hs.dur()
			}
		}
		if serverChecked(s) {
			ce = l.certDur[byKey]
		}
		pos := func(d time.Duration) time.Duration { return max(d, 0) }
		self["transport"] += pos(s.lat - h.dur() - p.dur())
		self["canon"] += p.dur()
		self["handler"] += pos(h.dur() - eng - hp - ce - p.dur())
		self["engine"] += pos(eng - lease)
		self["leases"] += lease
		self["peer_hop"] += hp
		self["cert"] += ce
		total += s.lat - p.dur()
	}
	return self, total, server, transport
}

// metrics computes the per-layer metrics of a traced run.
func (l *layers) metrics(e *env) []metric {
	per := 1.0
	e.stamp("layer_counts_per", "timed phase")
	if l.passes > 0 {
		per = float64(l.passes)
		e.stamp("layer_counts_per", "traced pass")
	}
	c := func(name string) float64 { return float64(l.counters[name]) / per }
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{name, v, unit, n})
	}

	self, total, server, transport := l.selfTimes()
	add("serve.server_ms_p50", quantile(server, 0.5), "ms", len(server))
	add("serve.transport_ms_p50", quantile(transport, 0.5), "ms", len(transport))
	src := l.src
	n := int(src.requests)
	for _, s := range []struct {
		name string
		v    int64
	}{{"cold", src.cold}, {"warm", src.warm}, {"cache", src.cache}, {"dedup", src.dedup}, {"store", src.store}, {"peer", src.peer}} {
		add("serve.src."+s.name, float64(s.v)/per, "count", n)
	}
	add("serve.cache_hit_frac", float64(src.cache)/float64(max(n, 1)), "frac", n)

	var canon []float64
	var canonTotal time.Duration
	leaseN := make(map[string]int)
	leaseDur := make(map[string]time.Duration)
	var hops []float64
	for _, s := range l.spans {
		switch s.kind {
		case spanParse:
			canon = append(canon, float64(s.dur())/float64(time.Microsecond))
			canonTotal += s.dur()
		case spanLease:
			leaseN[s.arm]++
			leaseDur[s.arm] += s.dur()
		case spanHop:
			hops = append(hops, ms(s.dur()))
		}
	}
	add("serve.canon_us_p50", quantile(canon, 0.5), "us", len(canon))
	add("serve.canon_ms_total", ms(canonTotal)/per, "ms", len(canon))

	wins := make(map[string]int)
	for _, s := range l.traced {
		if s.source() == "cold" || s.source() == "warm" {
			wins[s.winner()]++
		}
	}
	totalLeases, totalWins := 0, 0
	for _, a := range arms {
		add("portfolio.leases."+a, float64(leaseN[a])/per, "count", leaseN[a])
		add("portfolio.lease_ms."+a, ms(leaseDur[a])/per, "ms", leaseN[a])
		add("portfolio.wins."+a, float64(wins[a])/per, "count", wins[a])
		totalLeases += leaseN[a]
		totalWins += wins[a]
	}
	add("portfolio.win_per_lease", float64(totalWins)/float64(max(totalLeases, 1)), "frac", totalLeases)

	for _, name := range []string{"chase.rounds", "chase.homomorphisms", "finitemodel.nodes", "search.nodes", "rewrite.rules_added"} {
		add(name, c(name), "count", 1)
	}

	var certTotal time.Duration
	for _, s := range l.traced {
		if serverChecked(s) {
			certTotal += l.certDur[genKey{int(s.gen), s.key}]
		}
	}
	add("cert.checks", c("serve.cert_checked"), "count", 1)
	add("cert.rejects", c("serve.cert_rejected"), "count", 1)
	add("cert.check_ms_total", ms(certTotal)/per, "ms", len(l.certDur))

	add("store.puts", c("store.puts"), "count", 1)
	add("store.written_bytes", c("store.written_bytes"), "bytes", 1)
	add("store.bytes_per_record", float64(l.counters["store.written_bytes"])/float64(max(l.counters["store.puts"], 1)), "bytes", int(l.counters["store.puts"]))
	add("store.recovered_records", float64(l.recovered)/float64(max(len(l.opens), 1)), "count", len(l.opens))
	opens := make([]float64, len(l.opens))
	for k, d := range l.opens {
		opens[k] = ms(d)
	}
	add("store.open_ms", quantile(opens, 0.5), "ms", len(opens))

	add("ring.owner_share_max", l.shareMax, "frac", 1)
	add("ring.owner_share_min", l.shareMin, "frac", 1)
	add("peer.fills", c("serve.peer_fills"), "count", 1)
	add("peer.ok", c("serve.peer_ok"), "count", 1)
	add("peer.down", c("serve.peer_down"), "count", 1)
	add("peer.unknown", c("serve.peer_unknown"), "count", 1)
	add("peer.rejected", c("serve.peer_rejected"), "count", 1)
	add("peer.hop_ms_p50", quantile(hops, 0.5), "ms", len(hops))

	add("runtime.gc_cycles", float64(l.gcs)/per, "count", 1)
	add("runtime.gc_pause_ms", ms(l.gcPause)/per, "ms", 1)

	overhead := 0.0
	if l.onN > 0 && l.offN > 0 {
		on := float64(l.onN) / l.onDur.Seconds()
		off := float64(l.offN) / l.offDur.Seconds()
		overhead = off/on - 1
	}
	add("trace.overhead_frac", overhead, "frac", l.onN)

	for _, k := range []string{"transport", "handler", "canon", "engine", "leases", "cert", "peer_hop"} {
		add("share."+k, float64(self[k])/float64(max(total, 1)), "frac", len(l.traced))
	}
	return out
}
