package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/serve"
)

// The traced run records spans from this package's own code, around calls
// into the program's public functions: a middleware around
// Server.Handler(), serve.ParseRequest on each request body, a timing
// serve.Config.Runner around serve.PortfolioRunner, portfolio leases from
// the arm_start/arm_result events the program emits, a timing
// RoundTripper for peer hops, and cert.Check and store.Open timed
// directly. The client request (a sample) is each trace's root. Spans of
// one request are linked by the replica start they happened in plus the
// response's req (handler, parse, leases) or key (engine run, peer hop).

// Span kinds.
const (
	spanHandler = "handler"
	spanParse   = "parse"
	spanEngine  = "engine"
	spanLease   = "lease"
	spanHop     = "hop"
)

type span struct {
	kind string
	gen  int
	// req is the server's request ID, key the canonical digest; each span
	// kind sets the one it is linked by.
	req, key string
	// arm names a lease's portfolio arm; fill marks a handler span of an
	// incoming peer fill, which belongs to the hop that sent it.
	arm        string
	fill       bool
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// gens numbers replica starts across the whole run.
var gens atomic.Int64

func nextGen() int { return int(gens.Add(1)) }

// tracer collects spans while on. A nil tracer is an untraced run: every
// hook below leaves the server exactly as tdserve configures it.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	open  map[leaseKey]time.Time
}

type leaseKey struct {
	gen      int
	req, arm string
}

func newTracer() *tracer { return &tracer{open: make(map[leaseKey]time.Time)} }

// set turns recording on or off; a no-op in untraced runs.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// instrument installs the engine-run, lease and peer-hop hooks.
func (t *tracer) instrument(cfg *serve.Config, gen int) {
	if t == nil {
		return
	}
	cfg.Runner = func(ctx context.Context, p *serve.Problem, b core.Budget) (serve.CachedVerdict, error) {
		if !t.on.Load() {
			return serve.PortfolioRunner(ctx, p, b)
		}
		s := span{kind: spanEngine, gen: gen, key: p.Hash, start: time.Now()}
		v, err := serve.PortfolioRunner(ctx, p, b)
		s.end = time.Now()
		t.add(s)
		return v, err
	}
	cfg.Sink = leaseSink{t, gen}
	cfg.PeerClient = &http.Client{Timeout: peerTimeout, Transport: hopTripper{t, gen, http.DefaultTransport}}
}

// leaseSink turns the portfolio's arm_start/arm_result events into lease
// spans.
type leaseSink struct {
	t   *tracer
	gen int
}

func (l leaseSink) Event(e obs.Event) {
	if (e.Type != obs.EvArmStart && e.Type != obs.EvArmResult) || e.Src != "portfolio" || !l.t.on.Load() {
		return
	}
	now := time.Now()
	k := leaseKey{l.gen, e.Req, e.Arm}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	if e.Type == obs.EvArmStart {
		l.t.open[k] = now
		return
	}
	if start, ok := l.t.open[k]; ok {
		delete(l.t.open, k)
		l.t.spans = append(l.t.spans, span{kind: spanLease, gen: l.gen, req: e.Req, arm: e.Arm, start: start, end: now})
	}
}

// hopTripper times a peer fill's round trip, body included, and links it
// by the key the owner answers with.
type hopTripper struct {
	t    *tracer
	gen  int
	base http.RoundTripper
}

func (h hopTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !h.t.on.Load() {
		return h.base.RoundTrip(req)
	}
	s := span{kind: spanHop, gen: h.gen, start: time.Now()}
	resp, err := h.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var id struct{ Key string }
	if json.Unmarshal(body, &id) == nil {
		s.key = id.Key
		h.t.add(s)
	}
	return resp, err
}

// middleware wraps a replica's handler: it times serve.ParseRequest on a
// copy of the body, then the handler itself, and links both by the req of
// the response it captures.
func (t *tracer) middleware(h http.Handler, gen int) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/infer" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		parse := span{kind: spanParse, gen: gen, start: time.Now()}
		var req serve.Request
		if json.Unmarshal(body, &req) == nil {
			_, _ = serve.ParseRequest(req) // the handler parses again; only the time is kept
		}
		parse.end = time.Now()
		cw := &captureWriter{ResponseWriter: w}
		hs := span{kind: spanHandler, gen: gen, fill: r.Header.Get("X-TD-Peer-Fill") == "1", start: time.Now()}
		h.ServeHTTP(cw, r)
		hs.end = time.Now()
		var id struct{ Req string }
		if json.Unmarshal(cw.buf.Bytes(), &id) == nil && id.Req != "" {
			hs.req, parse.req = id.Req, id.Req
			t.add(parse)
			t.add(hs)
		}
	})
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// certTimes times cert.Check once per stored certificate of the given
// keys — the check the server runs on every cold, store or peer answer.
func certTimes(r *replica, fullKeys map[string]string) map[string]time.Duration {
	out := make(map[string]time.Duration, len(fullKeys))
	for hash, full := range fullKeys {
		rec, ok := r.st.Get(full)
		if !ok || len(rec.Cert) == 0 {
			continue
		}
		var c cert.Certificate
		if json.Unmarshal(rec.Cert, &c) != nil {
			continue
		}
		t0 := time.Now()
		if cert.Check(&c) == nil {
			out[hash] = time.Since(t0)
		}
	}
	return out
}
