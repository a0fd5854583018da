// Load harness for the inference service: `tdbench -loadjson FILE` hammers
// a running tdserve with a duplicate-heavy mix of problems from a pool of
// concurrent workers, then writes a JSON report with client-observed
// latency percentiles and the cache/dedup hit rate. The workload is mostly
// repeats by construction — N requests round-robin over a handful of
// problems, one of which is a symbol-renamed twin of another — so a
// healthy server must answer most of it from the canonical cache or by
// collapsing in-flight duplicates. The harness exits nonzero when the
// cache never hits, or when repeats of one problem disagree on the
// verdict or canonical key: the service-level form of the engines'
// determinism guarantee.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"templatedep/internal/serve"
)

// loadProblems is the request mix. The last entry is the power preset
// under renamed symbols and without its zero equations spelled out — it
// must land on the same cache line as {"preset":"power"}, exercising
// canonicalization end to end over HTTP.
func loadProblems() []serve.Request {
	reqs := []serve.Request{
		{Preset: "power"},
		{Preset: "twostep"},
		{Preset: "gap"},
		{Preset: "chain:2"},
		{Preset: "nilpotent:2"},
		{Alphabet: []string{"A0", "Q", "Z"}, A0: "A0", Zero: "Z", Equations: []string{"A0 A0 = Q"}},
	}
	return reqs
}

type loadResult struct {
	// Problem is the index into the request mix; Key/Verdict are as
	// reported by the server; Source is "cold", "cache", "dedup", "store",
	// or "peer".
	Problem   int     `json:"problem"`
	Key       string  `json:"key"`
	Source    string  `json:"source"`
	Verdict   string  `json:"verdict"`
	LatencyMS float64 `json:"latency_ms"`
}

type loadReport struct {
	reportHost
	Server    string  `json:"server"`
	Requests  int     `json:"requests"`
	Workers   int     `json:"workers"`
	Problems  int     `json:"problems"`
	Cold      int     `json:"cold"`
	CacheHits int     `json:"cache_hits"`
	Dedups    int     `json:"dedups"`
	StoreHits int     `json:"store_hits"`
	PeerFills int     `json:"peer_fills"`
	HitRate   float64 `json:"hit_rate"`
	// MetricsDelta is the server-side counter movement over the burst
	// (after minus before, from GET /metrics), cross-checked against the
	// client-observed source totals above — a mismatch fails the run. Only
	// the serve.* counters the harness validates are recorded.
	MetricsDelta map[string]int64 `json:"metrics_delta,omitempty"`
	P50MS        float64          `json:"p50_ms"`
	P90MS        float64          `json:"p90_ms"`
	P99MS        float64          `json:"p99_ms"`
	MaxMS        float64          `json:"max_ms"`
	// Results carries one row per request only when the run is small
	// enough to be worth inlining (<= 64 requests); summaries above are
	// always present.
	Results []loadResult `json:"results,omitempty"`
}

func writeLoadJSON(path, server string, n, c int) {
	fail := reportFail("load")
	if n <= 0 || c <= 0 {
		fail("-loadn and -loadc must be positive")
	}
	reportProbe(path, fail)

	problems := loadProblems()
	bodies := make([][]byte, len(problems))
	for i, p := range problems {
		b, err := json.Marshal(p)
		if err != nil {
			fail("marshal problem %d: %v", i, err)
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: 60 * time.Second}
	before, err := fetchCounters(client, server)
	if err != nil {
		fail("metrics snapshot before burst: %v", err)
	}
	url := server + "/infer"
	results := make([]loadResult, n)
	var wg sync.WaitGroup
	errCh := make(chan error, c)
	jobs := make(chan int)
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				pi := i % len(problems)
				start := time.Now()
				httpRes, err := client.Post(url, "application/json", bytes.NewReader(bodies[pi]))
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				var res serve.Response
				decErr := json.NewDecoder(httpRes.Body).Decode(&res)
				httpRes.Body.Close()
				if decErr != nil || httpRes.StatusCode != http.StatusOK {
					select {
					case errCh <- fmt.Errorf("request %d (problem %d): status %d, decode err %v", i, pi, httpRes.StatusCode, decErr):
					default:
					}
					return
				}
				results[i] = loadResult{
					Problem:   pi,
					Key:       res.Key,
					Source:    res.Source,
					Verdict:   res.Verdict.String(),
					LatencyMS: float64(time.Since(start).Microseconds()) / 1e3,
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		fail("%v", err)
	default:
	}

	// Consistency sweep: all repeats of one problem must report the same
	// key and verdict, cold or cached. The renamed twin (last problem)
	// must additionally share problem 0's key — that is the
	// canonicalization contract observed from outside the process.
	firstFor := make(map[int]loadResult)
	rep := loadReport{
		reportHost: newReportHost(),
		Server:     server,
		Requests:   n,
		Workers:    c,
		Problems:   len(problems),
	}
	latencies := make([]float64, 0, n)
	for i, r := range results {
		if first, ok := firstFor[r.Problem]; ok {
			if r.Verdict != first.Verdict {
				fail("problem %d: verdict flipped across repeats (%q then %q at request %d)", r.Problem, first.Verdict, r.Verdict, i)
			}
			if r.Key != first.Key {
				fail("problem %d: canonical key changed across repeats (%q then %q at request %d)", r.Problem, first.Key, r.Key, i)
			}
		} else {
			firstFor[r.Problem] = r
		}
		switch r.Source {
		case "cold":
			rep.Cold++
		case "cache":
			rep.CacheHits++
		case "dedup":
			rep.Dedups++
		case "store":
			rep.StoreHits++
		case "peer":
			rep.PeerFills++
		default:
			fail("request %d: unknown source %q", i, r.Source)
		}
		latencies = append(latencies, r.LatencyMS)
	}
	if n > len(problems) && rep.CacheHits+rep.Dedups+rep.StoreHits == 0 {
		fail("sent %d requests over %d problems but observed zero cache, store, or dedup hits — the verdict cache is not working", n, len(problems))
	}

	// Cross-check the client's view against the server's own counters: the
	// /metrics movement over the burst must equal what the responses
	// claimed, source by source. (The harness assumes it is the server's
	// only client — true in CI, where this gate runs.)
	after, err := fetchCounters(client, server)
	if err != nil {
		fail("metrics snapshot after burst: %v", err)
	}
	rep.MetricsDelta = make(map[string]int64)
	for name, want := range map[string]int64{
		"serve.requests":     int64(n),
		"serve.cache_hits":   int64(rep.CacheHits),
		"serve.dedups":       int64(rep.Dedups),
		"serve.cache_misses": int64(rep.Cold),
		"serve.store_hits":   int64(rep.StoreHits),
		"serve.peer_ok":      int64(rep.PeerFills),
	} {
		got := after[name] - before[name]
		rep.MetricsDelta[name] = got
		if got != want {
			fail("server counter %s moved by %d over the burst but clients observed %d — server metrics and client outcomes disagree", name, got, want)
		}
	}
	if twin, ok := firstFor[len(problems)-1]; ok {
		if power, ok2 := firstFor[0]; ok2 && twin.Key != power.Key {
			fail("renamed twin keyed %q but preset power keyed %q — canonicalization broken over HTTP", twin.Key, power.Key)
		}
	}

	// Store hits are hits — answered without any engine run.
	rep.HitRate = float64(rep.CacheHits+rep.Dedups+rep.StoreHits) / float64(n)
	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	rep.P50MS, rep.P90MS, rep.P99MS = pct(0.50), pct(0.90), pct(0.99)
	rep.MaxMS = latencies[len(latencies)-1]
	if n <= 64 {
		rep.Results = results
	}

	reportWrite(path, rep, fail)
	fmt.Printf("load: %d requests x %d workers over %d problems: cold=%d cache=%d dedup=%d store=%d peer=%d hit_rate=%.2f p50=%.1fms p99=%.1fms max=%.1fms\n",
		n, c, len(problems), rep.Cold, rep.CacheHits, rep.Dedups, rep.StoreHits, rep.PeerFills, rep.HitRate, rep.P50MS, rep.P99MS, rep.MaxMS)
	fmt.Printf("metrics delta validated against client-observed sources\n")
	fmt.Printf("wrote %s\n", path)
}

// fetchCounters snapshots a tdserve replica's counter block.
func fetchCounters(client *http.Client, server string) (map[string]int64, error) {
	resp, err := client.Get(server + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	if m.Counters == nil {
		m.Counters = map[string]int64{}
	}
	return m.Counters, nil
}
