// Command perfbench is the end-to-end benchmark of tdserve. It runs
// in-process serve.Servers configured the way tdserve deploys them, behind
// real loopback TCP listeners, drives them with a closed-loop client from
// the same process, checks every answer, and prints its metrics:
//
//	bash perfbench/run.sh --workload td-stream --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer ones, from spans its own code records around calls into the
// program. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// env is one run: its settings and everything it accumulates.
type env struct {
	workload string
	// corpusSeed fixes the corpus the TD inputs come from; seed orders
	// every workload's inputs and draws the renamed twins.
	corpusSeed int64
	seed       int64
	seconds    time.Duration
	dir        string
	tr         *tracer // nil in untraced runs
	cl         *client

	chk       checker
	book      verdictBook
	attempted int
	m         e2e
	layers    *layers
	stamps    map[string]any
}

func (e *env) stamp(k string, v any) { e.stamps[k] = v }

// phase is one timed stretch of traffic.
type phase struct {
	samples []sample
	dur     time.Duration
	peakMB  float64
	// windowPeaks are the peaks of each whole window, when the phase was
	// measured in windows.
	windowPeaks []float64
	gcs         uint32
	gcPause     time.Duration
}

// measure times one stretch of traffic and watches the heap and the
// garbage collector while it runs.
func (e *env) measure(window time.Duration, f func() []sample) phase {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hw := watchHeap(window)
	t0 := time.Now()
	s := f()
	ph := phase{samples: s, dur: time.Since(t0)}
	ph.peakMB, ph.windowPeaks = hw.end()
	runtime.ReadMemStats(&m1)
	ph.gcs = m1.NumGC - m0.NumGC
	ph.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	e.attempted += len(s)
	return ph
}

// e2e accumulates the end-to-end metrics over a run's timed phases. Rates,
// medians and heap peaks are taken per pass (or per window of one long
// phase) and reported as their median across the run, which keeps a burst
// of noise from a shared machine out of the figure. The tail comes from all
// the run's samples at once, or from each window of a long phase.
type e2e struct {
	setup    []time.Duration
	lat      []float64 // every timed request's client latency, ms
	tails    []float64 // tail latency of each window of a long phase, ms
	rates    []float64 // requests per second of each pass or window
	p50s     []float64 // median latency of each pass or window, ms
	requests int
	settled  int64
	peaks    []float64
	restart  []time.Duration
	replay   []float64 // requests per second of each replay
	replayN  int
	counts   []counts
	// tailQ is the latency percentile latency_tail_ms reports: the highest
	// of p99 and p95 whose run leaves at least ten samples beyond it.
	tailQ float64
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for k, s := range ss {
		out[k] = ms(s.lat)
	}
	return out
}

// addPhase books one cold pass's timed phase.
func (m *e2e) addPhase(ph phase, def int64) {
	lat := latencies(ph.samples)
	m.lat = append(m.lat, lat...)
	m.rates = append(m.rates, float64(len(lat))/ph.dur.Seconds())
	m.p50s = append(m.p50s, median(lat))
	m.requests += len(lat)
	m.settled += def
	m.peaks = append(m.peaks, ph.peakMB)
}

// addLong books one long timed phase measured in windows from start: its
// rate and median come from the whole phase (a window's rate would depend
// on how many passes over the mix it happens to hold); its tail and heap
// peak are the medians of the windows' tails and peaks.
func (m *e2e) addLong(ph phase, def int64, start time.Time, window time.Duration) {
	lat := latencies(ph.samples)
	m.lat = append(m.lat, lat...)
	per := make([][]float64, int(ph.dur/window))
	for _, s := range ph.samples {
		if w := int(s.start.Sub(start) / window); w < len(per) {
			per[w] = append(per[w], ms(s.lat))
		}
	}
	for _, wl := range per {
		m.tails = append(m.tails, quantile(wl, m.tailQ))
	}
	m.rates = append(m.rates, float64(len(lat))/ph.dur.Seconds())
	m.p50s = append(m.p50s, median(lat))
	m.requests += len(lat)
	m.settled += def
	m.peaks = append(m.peaks, ph.windowPeaks...)
}

func (m *e2e) addReplay(restart time.Duration, ph phase) {
	m.restart = append(m.restart, restart)
	m.replay = append(m.replay, float64(len(ph.samples))/ph.dur.Seconds())
	m.replayN += len(ph.samples)
}

// metric is one printed figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind it
}

// tail is the run's tail latency: the median of its windows' tails when it
// was measured in windows, the tail of all its samples otherwise.
func (m *e2e) tail() float64 {
	if len(m.tails) > 0 {
		return median(m.tails)
	}
	return quantile(m.lat, m.tailQ)
}

func (m *e2e) metrics() []metric {
	secs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for k, d := range ds {
			out[k] = d.Seconds()
		}
		return out
	}
	n := len(m.lat)
	return []metric{
		{"setup_s", median(secs(m.setup)), "s", len(m.setup)},
		{"throughput_rps", median(m.rates), "1/s", m.requests},
		{"latency_p50_ms", median(m.p50s), "ms", n},
		{"latency_tail_ms", m.tail(), "ms", n},
		{"settled_frac", float64(m.settled) / float64(m.requests), "frac", m.requests},
		{"peak_heap_mb", median(m.peaks), "MB", len(m.peaks)},
		{"restart_s", median(secs(m.restart)), "s", len(m.restart)},
		{"replay_rps", median(m.replay), "1/s", m.replayN},
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: td-stream, presets-cold or hot-ring")
		seed    = fs.Int64("seed", 1, "input seed: the order of the inputs and the twins' renamings")
		cseed   = fs.Int64("corpus-seed", 1, "seed of the internal/corpus corpus the TD inputs come from")
		seconds = fs.Int("seconds", 30, "how long to measure")
		trace   = fs.Int("trace", 0, "1 = print per-layer metrics from a traced run")
		workdir = fs.String("workdir", ".bench_build", "directory for replica stores and recorded counts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments %q\n", args)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{
		workload: *name, corpusSeed: *cseed, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		dir: dir, cl: newClient(), book: verdictBook{}, layers: newLayers(),
		stamps: map[string]any{},
	}
	e.m.tailQ = 0.99
	defer e.cl.close()
	if *trace == 1 {
		e.tr = newTracer()
	}
	e.stamp("workload", *name)
	e.stamp("seed", *seed)
	e.stamp("corpus_seed", *cseed)
	e.stamp("seconds", *seconds)
	e.stamp("trace", *trace)
	e.stamp("num_cpu", runtime.NumCPU())
	e.stamp("gomaxprocs", runtime.GOMAXPROCS(0))
	e.stamp("go_version", runtime.Version())
	e.stamp("budget_class", map[string]any{"rounds": limits.Rounds, "tuples": limits.Tuples,
		"nodes": limits.Nodes, "words": limits.Words, "request_timeout": 0})
	e.stamp("cache", map[string]int{"verdicts": cacheSize, "states": stateCacheSize})

	if err := runWorkload(e); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e.checkCounts(*workdir)

	var out []metric
	if e.tr == nil {
		out = e.m.metrics()
	} else {
		e.layers.spans = e.tr.take()
		out = e.layers.metrics(e)
	}
	e.stamp("tail_percentile", 100*e.m.tailQ)
	stamps, _ := json.Marshal(e.stamps)
	fmt.Fprintf(stdout, "stamps %s\n", stamps)
	for _, n := range e.chk.notes {
		fmt.Fprintf(stdout, "FAILED %s\n", n)
	}
	res := map[string]any{}
	for _, m := range out {
		extra := ""
		if m.name == "latency_tail_ms" {
			extra = fmt.Sprintf(" (p%.0f, %d beyond)", 100*e.m.tailQ, beyond(m.n, e.m.tailQ))
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %-6s samples=%d%s\n", m.name, m.value, m.unit, m.n, extra)
		res[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	last, err := json.Marshal(map[string]any{
		"correct":   e.chk.failed == 0,
		"attempted": e.attempted,
		"failed":    e.chk.failed,
		"metrics":   res,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return 0
}

// checkCounts holds every pass of the run to the first pass's exact
// counts, and the run to what an earlier run of the same binary, workload
// and seed recorded.
func (e *env) checkCounts(workdir string) {
	if len(e.m.counts) == 0 {
		e.chk.fail("no exact counts recorded")
		return
	}
	for i, c := range e.m.counts[1:] {
		checkCounts(&e.chk, fmt.Sprintf("%s pass %d against pass 0", e.workload, i+1), c, e.m.counts[0])
	}
	e.stamp("exact_counts", e.m.counts[0])
	exe, err := os.Executable()
	if err != nil {
		e.chk.fail("recorded counts: %v", err)
		return
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		e.chk.fail("recorded counts: %v", err)
		return
	}
	sum := sha256.Sum256(data)
	path := filepath.Join(workdir, "counts", fmt.Sprintf("%s-%d-%d-%s.json", e.workload, e.corpusSeed, e.seed, hex.EncodeToString(sum[:8])))
	if err := checkRecorded(&e.chk, path, e.m.counts[0]); err != nil {
		e.chk.fail("recorded counts: %v", err)
	}
}
