package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"templatedep/internal/serve"
)

// sample is one request as the client saw it. A run keeps every one in
// the heap the servers are measured in, so the answer is held compactly:
// the key shares its input's string, and source, verdict and winner are
// codes into fixed vocabularies.
type sample struct {
	start   time.Time
	lat     time.Duration
	err     error
	key     string  // canonical digest the server answered with
	req     string  // the server's request ID, kept in traced runs only
	elapsed float32 // the server's elapsed_ms
	item    int32   // index into the workload's inputs
	gen     int32   // start number of the replica it was sent to
	rep     uint8   // index of that replica
	// src, vrd and win code the answer's source, verdict and winning arm.
	src, vrd, win uint8
}

var (
	sourceNames  = []string{"", "cold", "warm", "cache", "dedup", "store", "peer"}
	verdictNames = []string{"", implied, finite, unknown}
	winnerNames  = append([]string{""}, arms...)
)

// code returns s's index in vocab, 0 (the empty word) when absent.
func code(vocab []string, s string) uint8 {
	for k, v := range vocab {
		if v == s {
			return uint8(k)
		}
	}
	return 0
}

func (s sample) source() string  { return sourceNames[s.src] }
func (s sample) verdict() string { return verdictNames[s.vrd] }
func (s sample) winner() string  { return winnerNames[s.win] }

// setAnswer keeps what the checks and the trace need from resp.
func (s *sample) setAnswer(resp serve.Response, want string, traced bool) {
	s.key = resp.Key
	if resp.Key == want {
		s.key = want
	}
	if traced {
		s.req = resp.Req
	}
	s.elapsed = float32(resp.ElapsedMS)
	s.src = code(sourceNames, resp.Source)
	s.vrd = code(verdictNames, resp.Verdict.String())
	s.win = code(winnerNames, resp.Winner)
}

// job is one request to send: input item to replica rep.
type job struct{ item, rep int }

// client is the load generator's HTTP side, shared by its goroutines.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// infer posts one request body and decodes the answer.
func (c *client) infer(url string, body []byte) (serve.Response, error) {
	resp, err := c.hc.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.Response{}, fmt.Errorf("POST %s/infer: %s: %s", url, resp.Status, bytes.TrimSpace(data))
	}
	var out serve.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return serve.Response{}, fmt.Errorf("POST %s/infer: %w", url, err)
	}
	return out, nil
}

// counters fetches a replica's /metrics counter block.
func (c *client) counters(url string) (map[string]int64, error) {
	resp, err := c.hc.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET %s/metrics: %w", url, err)
	}
	return m.Counters, nil
}

// healthy reports whether the replica answers /healthz with 200.
func (c *client) healthy(url string) error {
	resp, err := c.hc.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s/healthz: %s", url, resp.Status)
	}
	return nil
}

// run is a closed loop: each of `clients` goroutines takes the next job,
// sends it, and waits for the answer before taking another, until next
// says stop. It returns the samples in the order the jobs were taken.
func (c *client) run(clients int, reps []*replica, inputs []item, next func(n int) (job, bool)) []sample {
	traced := reps[0].tr != nil
	type taken struct {
		n int
		s sample
	}
	var (
		mu  sync.Mutex
		all []taken
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []taken
			for {
				n := int(seq.Add(1) - 1)
				j, ok := next(n)
				if !ok {
					break
				}
				r := reps[j.rep]
				s := sample{item: int32(j.item), rep: uint8(j.rep), gen: int32(r.gen), start: time.Now()}
				resp, err := c.infer(r.url, inputs[j.item].body)
				s.lat = time.Since(s.start)
				s.err = err
				if err == nil {
					s.setAnswer(resp, inputs[j.item].key, traced)
				}
				mine = append(mine, taken{n, s})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].n < all[b].n })
	out := make([]sample, len(all))
	for k, t := range all {
		out[k] = t.s
	}
	return out
}
