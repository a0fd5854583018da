// Package serve is the long-running inference service over the adaptive
// portfolio (internal/portfolio, through PortfolioRunner): an HTTP/JSON
// layer that answers TD-implication queries with the same engines as the
// CLIs, but amortizes work across requests.
//
// Undecidability shapes the serving economics. A single query may burn its
// entire budget and still answer Unknown — that is the honest outcome the
// Main Theorem forces — so repeated work is the one cost a service CAN
// eliminate. Two layers do so:
//
//   - a bounded LRU verdict cache keyed by the CANONICAL form of the
//     problem (canon.go), so a repeat query — even renamed or reordered —
//     is answered without touching an engine;
//   - a singleflight table collapsing identical in-flight queries: N
//     concurrent requests for one problem run ONE chase, and the other
//     N−1 wait for its verdict.
//
// Each cold request runs under a governor derived from the server-wide
// limits via budget.ForRequest: its context is a child of the server's
// root context, so draining cancels every in-flight engine at its next
// checkpoint, and engines close their traces on the way out (the
// partial-trace contract of internal/obs). Every event a request causes is
// stamped with a per-request trace ID, making one server trace separable
// into per-request sub-traces.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/finitemodel"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/relation"
	"templatedep/internal/ring"
	"templatedep/internal/search"
	"templatedep/internal/store"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

// Runner executes one cold inference. The server owns timing, caching, and
// deduplication; the runner only turns a problem and a budget into a
// verdict. Injectable so lifecycle tests can gate and count engine runs.
type Runner func(ctx context.Context, p *Problem, b core.Budget) (CachedVerdict, error)

// Config configures a Server. The zero value serves with engine-default
// budgets, a 1024-entry cache, and no event sink.
type Config struct {
	// Limits are the server-wide per-request meter limits. Each request
	// derives its arm governors from them; zero fields fall back to the
	// owning engine's defaults, so Limits{} means "the budgets tdinfer
	// would use". Words has no effect: the derivation arm runs at
	// words.DefaultLimits for every caller, as kb runs at
	// rewrite.DefaultLimits.
	Limits budget.Limits
	// RequestTimeout bounds each cold run's wall clock (0 = meters only).
	RequestTimeout time.Duration
	// MaxInflight caps concurrent engine runs; excess cold requests wait
	// for a slot (0 = unlimited). Cache hits and deduplicated followers
	// never consume a slot.
	MaxInflight int
	// CacheSize bounds the verdict cache (entries; 0 = 1024).
	CacheSize int
	// StateCacheSize has no effect: a cold run chases from its goal's
	// frozen antecedents, with no snapshot shared across requests.
	StateCacheSize int
	// Workers has no effect: a cold run's chase, like its searches, runs
	// on the request's goroutine.
	Workers int
	// Sink receives every event of every request, each stamped with the
	// request's trace ID.
	Sink obs.Sink
	// Counters, when set, additionally folds every event through a
	// CounterSink — the source of /metrics.
	Counters *obs.Counters
	// Runner overrides the engine entry point (nil = PortfolioRunner).
	Runner Runner
	// Store, when set, is the disk-backed write-through verdict store:
	// every answered verdict is persisted (internal/store supersession
	// rules apply) and a cache miss consults it before any peer or engine,
	// so a restarted replica answers previously-settled keys from disk
	// (Response.Source "store"). The server reads and writes the store but
	// does not own it — the caller opens and closes it.
	Store *store.Store
	// Peers are the base URLs ("http://host:port") of every replica in the
	// serving ring, this one included. With fewer than two peers the ring
	// is off and every miss computes locally.
	Peers []string
	// Self is this replica's own base URL exactly as it appears in Peers —
	// the identity under which the ring assigns it keys.
	Self string
	// PeerTimeout bounds each peer-fill round trip (0 = 2s). Kept tight on
	// purpose: a slow owner is indistinguishable from a down one, and the
	// local engines are always available as the fallback.
	PeerTimeout time.Duration
	// PeerClient overrides the HTTP client used for peer fills (nil = a
	// default client bounded by PeerTimeout). Injectable for tests.
	PeerClient *http.Client
}

const (
	defaultCacheSize   = 1024
	defaultPeerTimeout = 2 * time.Second
)

// Problem is a parsed, canonicalized request.
type Problem struct {
	// Mode is "presentation" or "td".
	Mode string
	// Pres is set in presentation mode.
	Pres *words.Presentation
	// Deps and Goal are set in td mode.
	Deps []*td.TD
	Goal *td.TD
	// Key is the full canonical form — the cache and singleflight key.
	Key string
	// Hash is the short digest of Key used on the wire and in events.
	Hash string
	// Limits carries the request's per-meter budget overrides (zero
	// fields defer to the server-wide limits). Deliberately NOT part of
	// the canonical Key: the problem class is the same whatever budget a
	// client brings — the budget only decides whether a cached Unknown
	// verdict may stand in for the request (CachedVerdict.Class).
	Limits budget.Limits
	// Wire is the request as it arrived, kept so a peer fill can forward
	// the problem verbatim to the replica that owns its key.
	Wire Request
	// LocalOnly marks a request that must be answered without consulting
	// peers (set for incoming peer fills — see peerFillHeader): two
	// replicas with disagreeing rings degrade to local computes instead of
	// forwarding a request back and forth.
	LocalOnly bool
}

// Request is the JSON body of POST /infer. Exactly one problem form must
// be present: a preset name, an explicit presentation, or a TD instance.
type Request struct {
	// Preset names a built-in presentation family (words.Preset).
	Preset string `json:"preset,omitempty"`
	// Alphabet/A0/Zero/Equations spell out a presentation. Equations use
	// the "x y = z" notation of the CLIs.
	Alphabet  []string `json:"alphabet,omitempty"`
	A0        string   `json:"a0,omitempty"`
	Zero      string   `json:"zero,omitempty"`
	Equations []string `json:"equations,omitempty"`
	// Schema/Deps/Goal spell out a TD instance in td.Parse notation.
	Schema []string `json:"schema,omitempty"`
	Deps   []string `json:"deps,omitempty"`
	Goal   string   `json:"goal,omitempty"`
	// Rounds/Tuples/Nodes override the server-wide meter limits for this
	// request only (0 = server default): the chase's rounds and tuples, and
	// the node ceiling of the search arm the request runs (finite-db for a
	// TD instance, model-search for a presentation). A request whose
	// budget class exceeds the one a cached Unknown verdict was computed
	// under re-runs the engines and overwrites the entry — bigger budgets
	// may settle what smaller ones could not.
	Rounds int `json:"rounds,omitempty"`
	Tuples int `json:"tuples,omitempty"`
	Nodes  int `json:"nodes,omitempty"`
}

// Response is the JSON body of a successful POST /infer.
type Response struct {
	// Req is the request's trace ID — grep the server's JSONL trace for
	// this value to see everything the request caused.
	Req string `json:"req"`
	// Key is the canonical problem digest; equal keys got equal verdicts.
	Key string `json:"key"`
	// Mode is "presentation" or "td".
	Mode string `json:"mode"`
	// Source says how the verdict was obtained: "cold" (an engine ran),
	// "cache" (verdict cache), "dedup" (collapsed into an identical
	// in-flight run), "store" (disk-backed verdict store — a restart-warm
	// hit), or "peer" (certificate-verified fill from the ring owner).
	Source string `json:"source"`
	// Verdict is "implied", "finite-counterexample", or "unknown".
	Verdict core.Verdict `json:"verdict"`
	// Winner names the arm that settled the cold run, when one did.
	Winner string `json:"winner,omitempty"`
	// Stop reports how the cold run's budget cut it short, if it did.
	Stop string `json:"stop,omitempty"`
	// ElapsedMS is this request's wall clock; ColdMS is the engine wall
	// clock of the run that produced the verdict (equal for cold
	// requests, the amount saved for cache/dedup ones).
	ElapsedMS float64 `json:"elapsed_ms"`
	ColdMS    float64 `json:"cold_ms"`
	// Cert is the verifiable certificate backing a definitive verdict,
	// checked by the server before it was stored. The HTTP layer strips
	// it unless the client asked (POST /infer?cert=1); Infer always fills
	// it when one exists.
	Cert *cert.Certificate `json:"cert,omitempty"`
}

// call is one in-flight cold run; followers for the same key block on done.
type call struct {
	done chan struct{}
	val  CachedVerdict
	err  error
	// dups counts followers collapsed into this run (observable by tests
	// and the dedup events).
	dups atomic.Int64
}

// Server answers inference requests. Create with New, serve via Handler,
// stop via BeginDrain + Shutdown.
type Server struct {
	cfg        Config
	base       []obs.Sink
	rootCtx    context.Context
	rootCancel context.CancelFunc
	sem        chan struct{}
	ring       *ring.Ring
	peerClient *http.Client

	mu       sync.Mutex
	cache    *lru
	inflight map[string]*call
	draining bool
	drainN   int

	// wg tracks cold engine runs; Shutdown waits on it.
	wg           sync.WaitGroup
	reqSeq       atomic.Int64
	engineNow    atomic.Int64
	enginePeak   atomic.Int64
	requestsSeen atomic.Int64
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.Runner == nil {
		cfg.Runner = PortfolioRunner
	}
	var base []obs.Sink
	if cfg.Sink != nil {
		base = append(base, cfg.Sink)
	}
	if cfg.Counters != nil {
		base = append(base, obs.NewCounterSink(cfg.Counters))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		base:       base,
		rootCtx:    ctx,
		rootCancel: cancel,
		cache:      newLRU(cfg.CacheSize),
		inflight:   make(map[string]*call),
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if len(cfg.Peers) > 1 && cfg.Self != "" {
		s.ring = ring.New(cfg.Peers, 0)
		s.peerClient = cfg.PeerClient
		if s.peerClient == nil {
			timeout := cfg.PeerTimeout
			if timeout <= 0 {
				timeout = defaultPeerTimeout
			}
			s.peerClient = &http.Client{Timeout: timeout}
		}
	}
	return s
}

// emit fans a serve-layer event (no request attribution) to every sink.
func (s *Server) emit(e obs.Event) {
	e.Src = "serve"
	for _, d := range s.base {
		d.Event(e)
	}
}

// reqSink stamps the request trace ID on every event passing through,
// whatever layer emitted it, and fans out to the server's sinks. This is
// what makes a multi-request server trace separable: grep for one req
// value and the lines are exactly that request's sub-trace.
type reqSink struct {
	id  string
	dst []obs.Sink
}

func (r reqSink) Event(e obs.Event) {
	e.Req = r.id
	for _, d := range r.dst {
		d.Event(e)
	}
}

// pick resolves one meter limit: the server-wide value when set, the
// owning engine's default otherwise.
func pick(cfgv, def int) int {
	if cfgv > 0 {
		return cfgv
	}
	return def
}

// limitsFor merges the request's per-meter budget overrides over the
// server-wide limits; zero override fields fall through to the config. The
// words meter is dropped, so Config.Limits.Words never becomes a pool that
// caps the derivation arm below its ceiling.
func (s *Server) limitsFor(p *Problem) budget.Limits {
	l := s.cfg.Limits
	l.Words = 0
	if p.Limits.Rounds > 0 {
		l.Rounds = p.Limits.Rounds
	}
	if p.Limits.Tuples > 0 {
		l.Tuples = p.Limits.Tuples
	}
	if p.Limits.Nodes > 0 {
		l.Nodes = p.Limits.Nodes
	}
	return l
}

// chaseLimits resolves the per-request chase meter limits — the budget
// class every td-mode run executes under.
func (s *Server) chaseLimits(p *Problem) budget.Limits {
	l := s.limitsFor(p)
	return budget.Limits{
		Rounds: pick(l.Rounds, chase.DefaultLimits.Rounds),
		Tuples: pick(l.Tuples, chase.DefaultLimits.Tuples),
	}
}

// nodesFor resolves the node ceiling of the request's node-metered arm:
// the finite-database enumerator's for a TD instance, the counter-model
// search's for a presentation, each defaulting to its engine's limits.
func (s *Server) nodesFor(p *Problem) int {
	def := search.DefaultLimits.Nodes
	if p.Pres == nil {
		def = finitemodel.DefaultLimits.Nodes
	}
	return pick(s.limitsFor(p).Nodes, def)
}

// requestClass is the fully resolved budget class of a request: each
// meter at the effective value its arms run under (override, server
// config, or engine default). Stored with Unknown verdicts so a later,
// strictly larger request is treated as a miss (store.Class.Exceeds) and
// overwrites the entry.
func (s *Server) requestClass(p *Problem) store.Class {
	c := s.chaseLimits(p)
	return store.Class{Rounds: c.Rounds, Tuples: c.Tuples, Nodes: s.nodesFor(p)}
}

// budgetFor builds the per-request core budget: one request-scoped
// governor rooted at the server context (budget.ForRequest), one child
// governor per arm carrying the derived limits (kb keeps
// rewrite.DefaultLimits, as in every front-end), and the request-stamping
// sink threaded through every layer.
func (s *Server) budgetFor(p *Problem, sink obs.Sink) (core.Budget, *budget.Governor, context.CancelFunc) {
	g, cancel := budget.ForRequest(s.rootCtx, s.cfg.RequestTimeout, s.limitsFor(p))
	b := core.Budget{Governor: g, Sink: sink}
	b.Chase.Governor = g.Child(s.chaseLimits(p))
	nodes := budget.Limits{Nodes: s.nodesFor(p)}
	b.ModelSearch.Governor = g.Child(nodes)
	b.FiniteDB.Governor = g.Child(nodes)
	return b, g, cancel
}

// PortfolioRunner is the default Runner: every arm runs under one
// adaptive portfolio governor, with meter headroom reallocated between
// arms from live progress signals.
func PortfolioRunner(_ context.Context, p *Problem, b core.Budget) (CachedVerdict, error) {
	var res *portfolio.Result
	var err error
	if p.Pres != nil {
		res, err = portfolio.AnalyzePresentation(p.Pres, b)
	} else {
		res, err = portfolio.Infer(p.Deps, p.Goal, b)
	}
	if err != nil {
		return CachedVerdict{}, err
	}
	return CachedVerdict{Verdict: res.Verdict, Winner: res.Winner, Cert: res.Cert()}, nil
}

// ParseRequest validates a wire request and canonicalizes it into a
// Problem.
func ParseRequest(req Request) (*Problem, error) {
	p, err := parseProblem(req)
	if err != nil {
		return nil, err
	}
	p.Limits = budget.Limits{Rounds: req.Rounds, Tuples: req.Tuples, Nodes: req.Nodes}
	p.Wire = req
	return p, nil
}

func parseProblem(req Request) (*Problem, error) {
	forms := 0
	if req.Preset != "" {
		forms++
	}
	if len(req.Equations) > 0 || len(req.Alphabet) > 0 {
		forms++
	}
	if req.Goal != "" || len(req.Schema) > 0 || len(req.Deps) > 0 {
		forms++
	}
	if forms != 1 {
		return nil, fmt.Errorf("serve: request must carry exactly one of preset, equations, or schema/deps/goal (got %d forms)", forms)
	}
	switch {
	case req.Preset != "":
		if err := checkPresetCap(req.Preset); err != nil {
			return nil, err
		}
		p, err := words.Preset(req.Preset)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		return presentationProblem(p), nil
	case len(req.Equations) > 0 || len(req.Alphabet) > 0:
		a, err := words.NewAlphabet(req.Alphabet, req.A0, req.Zero)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		eqs := make([]words.Equation, 0, len(req.Equations))
		for _, line := range req.Equations {
			e, err := words.ParseEquation(a, line)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			eqs = append(eqs, e)
		}
		p, err := words.NewPresentation(a, eqs)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		return presentationProblem(p), nil
	default:
		if req.Goal == "" || len(req.Schema) == 0 {
			return nil, fmt.Errorf("serve: td requests need schema and goal")
		}
		schema, err := relation.NewSchema(req.Schema)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		deps, err := td.ParseSet(schema, strings.Join(req.Deps, "\n"))
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		goal, err := td.Parse(schema, req.Goal, "D0")
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		key := CanonInference(deps, goal)
		return &Problem{Mode: "td", Deps: deps, Goal: goal, Key: key, Hash: keyDigest(key)}, nil
	}
}

// presetCaps bounds the parameter of each parameterized preset family. A
// preset is built and canonicalized before any request budget exists, so
// its size is bounded here: on a 2-CPU host collapse:4 parses in 1.1 s and
// chain:64 in 35 ms, but chain:1000 took 4.9 s and collapse:K builds about
// 2K² symbols.
var presetCaps = map[string]int{"chain": 64, "nilpotent": 32, "tower": 32, "collapse": 4}

// checkPresetCap refuses a preset whose parameter exceeds its family's
// cap. A parameter that is not a number is left for words.Preset to
// refuse.
func checkPresetCap(name string) error {
	family, param, _ := strings.Cut(name, ":")
	limit, ok := presetCaps[family]
	if !ok {
		return nil
	}
	if n, err := strconv.Atoi(param); err == nil && n > limit {
		return fmt.Errorf("serve: preset %q: %s presets are served up to %s:%d", name, family, family, limit)
	}
	return nil
}

func presentationProblem(p *words.Presentation) *Problem {
	// Key the zero-completed form: the reduction applies WithZeroEquations
	// before chasing, so requests that differ only in whether they spell
	// the zero equations out pose the same problem and must share a line.
	key := CanonPresentation(p.WithZeroEquations())
	return &Problem{Mode: "presentation", Pres: p, Key: key, Hash: keyDigest(key)}
}

// ErrDraining is returned (as 503 on the wire) once BeginDrain was called.
var ErrDraining = errors.New("serve: draining")

// Infer answers one parsed problem: cache, then singleflight, then a cold
// governed run. It is the transport-independent core of the HTTP handler.
func (s *Server) Infer(p *Problem) (Response, error) {
	start := time.Now()
	id := "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
	s.requestsSeen.Add(1)
	sink := reqSink{id: id, dst: s.base}
	resp := Response{Req: id, Key: p.Hash, Mode: p.Mode}
	finish := func(src string, v CachedVerdict) (Response, error) {
		resp.Source = src
		resp.Verdict = v.Verdict
		resp.Winner = v.Winner
		resp.Stop = v.Stop
		resp.ColdMS = v.ColdMS
		resp.Cert = v.Cert
		resp.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		sink.Event(obs.Event{Type: obs.EvServeRequest, Src: "serve",
			Key: p.Hash, Source: src, Verdict: v.Verdict.String()})
		return resp, nil
	}
	emitCertCheck := func(kind, verdict string) {
		sink.Event(obs.Event{Type: obs.EvCertCheck, Src: "serve",
			Key: p.Hash, Source: kind, Verdict: verdict})
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Response{}, ErrDraining
	}
	// rejectedKind remembers a hit whose stored certificate failed
	// re-verification: the entry was evicted and the request falls
	// through to a recompute; the cert_check event is emitted once the
	// lock is released.
	rejectedKind := ""
	if v, ok := s.cache.Get(p.Key); ok {
		switch {
		case v.Verdict == core.Unknown && s.requestClass(p).Exceeds(v.Class):
			// A strictly larger budget may settle what this entry's class
			// could not: treat the hit as a miss and let the cold run
			// overwrite it.
		case v.Cert != nil && !v.CertOK:
			// The stored certificate was never (successfully) verified —
			// admit it before replaying the verdict, evict on failure (from
			// the disk store too: a proof this process cannot verify must
			// not answer the next process either).
			kind := string(v.Cert.Kind)
			if err := admit(p, v); err != nil {
				s.cache.Delete(p.Key)
				if s.cfg.Store != nil {
					s.cfg.Store.Delete(p.Key)
				}
				rejectedKind = kind
			} else {
				v.CertOK = true
				s.cache.Put(p.Key, v)
				s.mu.Unlock()
				emitCertCheck(kind, "ok")
				sink.Event(obs.Event{Type: obs.EvServeCacheHit, Src: "serve", Key: p.Hash})
				return finish("cache", v)
			}
		default:
			s.mu.Unlock()
			sink.Event(obs.Event{Type: obs.EvServeCacheHit, Src: "serve", Key: p.Hash})
			return finish("cache", v)
		}
	}
	if c, ok := s.inflight[p.Key]; ok {
		c.dups.Add(1)
		s.mu.Unlock()
		if rejectedKind != "" {
			emitCertCheck(rejectedKind, "rejected")
		}
		<-c.done
		if c.err != nil {
			return Response{}, c.err
		}
		sink.Event(obs.Event{Type: obs.EvServeDedup, Src: "serve", Key: p.Hash})
		return finish("dedup", c.val)
	}
	c := &call{done: make(chan struct{})}
	s.inflight[p.Key] = c
	s.wg.Add(1)
	s.mu.Unlock()
	if rejectedKind != "" {
		emitCertCheck(rejectedKind, "rejected")
	}

	// The leader stays on the drain WaitGroup through its event emission,
	// so a graceful Shutdown's serve_shutdown line lands after every cold
	// request's serve_request line.
	defer s.wg.Done()
	var src string
	c.val, src, c.err = s.lead(p, sink)
	s.mu.Lock()
	delete(s.inflight, p.Key)
	if c.err == nil {
		s.cache.Put(p.Key, c.val)
	}
	s.mu.Unlock()
	close(c.done)
	if c.err != nil {
		return Response{}, c.err
	}
	if src != "store" {
		// Write-through: everything this replica answered — cold and
		// peer-filled verdicts alike — lands on disk, so a restart
		// re-answers it from the store (src "store" was already there).
		s.storePut(p, c.val)
	}
	return finish(src, c.val)
}

// lead runs a singleflight leader's lookup ladder below the in-memory
// cache: disk store, then ring owner, then a local engine run. Returns the
// verdict and its Response.Source.
func (s *Server) lead(p *Problem, sink obs.Sink) (CachedVerdict, string, error) {
	if v, ok := s.storeGet(p, sink); ok {
		return v, "store", nil
	}
	if v, ok := s.peerFill(p, sink); ok {
		return v, "peer", nil
	}
	v, err := s.runCold(p, sink)
	return v, "cold", err
}

// runCold executes the engines for one leader request.
func (s *Server) runCold(p *Problem, sink obs.Sink) (CachedVerdict, error) {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-s.rootCtx.Done():
			return CachedVerdict{}, s.rootCtx.Err()
		}
	}
	n := s.engineNow.Add(1)
	for {
		peak := s.enginePeak.Load()
		if n <= peak || s.enginePeak.CompareAndSwap(peak, n) {
			break
		}
	}
	defer s.engineNow.Add(-1)

	b, g, cancel := s.budgetFor(p, sink)
	defer cancel()
	t0 := time.Now()
	v, err := s.cfg.Runner(g.Context(), p, b)
	if err != nil {
		return CachedVerdict{}, err
	}
	v.ColdMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if o := g.Interrupted(); o.Stopped() {
		v.Stop = o.String()
	}
	// Check the engine's certificate by the rule a store record passes
	// (admit) before the verdict is stored or served. A rejection never
	// trusts the proof — the cert is dropped — but keeps the verdict: the
	// engines are the soundness anchor, the certificate is the audit trail.
	if v.Cert != nil {
		err := admit(p, v)
		certChecked(sink, p, v.Cert, err)
		if err != nil {
			v.Cert = nil
		} else {
			v.CertOK = true
		}
	}
	v.Class = s.requestClass(p)
	return v, nil
}

// BeginDrain flips the server into draining mode: subsequent requests are
// refused with ErrDraining while in-flight ones run to completion. Returns
// the number of engine runs that were in flight at the flip (idempotent —
// repeat calls return the first flip's count).
func (s *Server) BeginDrain() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		s.drainN = int(s.engineNow.Load())
	}
	return s.drainN
}

// Shutdown drains the server: it waits for every in-flight engine run to
// finish, cancelling the server root context if ctx expires first so
// governed engines stop at their next checkpoint (closing their traces —
// the partial-trace contract), then emits the serve_shutdown event. The
// returned error is ctx's error when the drain needed the cancellation
// push, nil for a fully graceful drain.
func (s *Server) Shutdown(ctx context.Context) error {
	n := s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.rootCancel()
		<-done
		err = ctx.Err()
	}
	s.rootCancel()
	s.emit(obs.Event{Type: obs.EvServeShutdown, N: n})
	return err
}

// Stats is the /metrics gauge block (counters live in Config.Counters).
type Stats struct {
	Requests     int64 `json:"requests"`
	CacheEntries int   `json:"cache_entries"`
	Inflight     int64 `json:"inflight"`
	InflightPeak int64 `json:"inflight_peak"`
	Draining     bool  `json:"draining"`
	// StoreRecords is the disk store's live record count (0 when the
	// server runs without a store); Peers is the ring size (0 when
	// sharding is off).
	StoreRecords int `json:"store_records,omitempty"`
	Peers        int `json:"peers,omitempty"`
}

// Stats snapshots the server gauges.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	entries := s.cache.Len()
	draining := s.draining
	s.mu.Unlock()
	st := Stats{
		Requests:     s.requestsSeen.Load(),
		CacheEntries: entries,
		Inflight:     s.engineNow.Load(),
		InflightPeak: s.enginePeak.Load(),
		Draining:     draining,
	}
	if s.cfg.Store != nil {
		st.StoreRecords = s.cfg.Store.Len()
	}
	if s.ring != nil {
		st.Peers = s.ring.Len()
	}
	return st
}

// dupsFor reports how many followers are collapsed into the in-flight run
// for key (testing hook for the singleflight path).
func (s *Server) dupsFor(key string) int {
	s.mu.Lock()
	c := s.inflight[key]
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	return int(c.dups.Load())
}

// Handler returns the HTTP surface: POST /infer, GET /healthz, GET
// /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", s.handleInfer)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// decodeRequest reads one /infer body: a JSON object whose fields are all
// Request's.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeRequest(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := ParseRequest(req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// An incoming peer fill must be answered from local resources only —
	// never re-forwarded (see peerFillHeader).
	p.LocalOnly = r.Header.Get(peerFillHeader) == "1"
	resp, err := s.Infer(p)
	if r.URL.Query().Get("cert") != "1" {
		// Certificates can dwarf the verdict they back; clients opt in
		// with POST /infer?cert=1.
		resp.Cert = nil
	}
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	// A draining replica answers 503 so load balancers and ring peers
	// stop routing to it while its in-flight runs finish; /infer is
	// already refusing with ErrDraining by then.
	if st.Draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := map[string]any{"gauges": s.Stats()}
	if s.cfg.Counters != nil {
		out["counters"] = s.cfg.Counters.Snapshot()
	}
	writeJSON(w, http.StatusOK, out)
}
