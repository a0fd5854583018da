// Command tdserve is the long-running inference service: an HTTP/JSON
// front-end over the dual semidecision engines that amortizes work across
// requests with a canonical verdict cache and in-flight deduplication.
//
//	tdserve -addr :8080 -trace trace.jsonl
//
// Endpoints:
//
//	POST /infer    {"preset":"power"}
//	               {"alphabet":[...],"a0":"A0","zero":"0","equations":[...]}
//	               {"schema":[...],"deps":[...],"goal":"R(...) -> R(...)"}
//	GET  /healthz  {"status":"ok"|"draining"}
//	GET  /metrics  {"gauges":{...},"counters":{...}}
//
// Each request is canonicalized up to symbol renaming and equation order
// before lookup, so renamed repeats of a problem share one cache line and
// one engine run. Responses carry a "source" field ("cold", "cache",
// "dedup", "store", "peer") and the request trace ID, which stamps every
// JSONL event the request caused.
//
// -store FILE persists every answered verdict in an append-log; a
// restarted replica replays it on boot and answers previously-settled keys
// from disk (source "store") without re-running an engine. -peers/-self
// shard the canonical key-space across replicas by consistent hashing: a
// local miss on a key another replica owns is forwarded there, and the
// answer adopted only after its certificate passes the local verifier —
// a down or lying peer degrades to a local compute, never to a wrong or
// unproven verdict.
//
// SIGINT/SIGTERM drains gracefully: new requests get 503, in-flight runs
// finish (or are cancelled at their next governor checkpoint once
// -drain-timeout expires, closing their traces), then the server emits the
// final serve_shutdown event and exits 0.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/serve"
	"templatedep/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		cacheSize    = flag.Int("cache", 1024, "verdict cache entries")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent engine runs (0 = unlimited)")
		reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "wall-clock budget per cold request (0 = meters only)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight runs before cancelling them")
		rounds       = flag.Int("rounds", 0, "per-request chase round budget (0 = engine default)")
		tuples       = flag.Int("tuples", 0, "per-request chase tuple budget (0 = engine default)")
		nodes        = flag.Int("nodes", 0, "per-request search node budget (0 = engine default)")
		traceFile    = flag.String("trace", "", "write the structured event stream to FILE as JSONL (see docs/OBSERVABILITY.md)")
		storePath    = flag.String("store", "", "disk-backed verdict store FILE (append-log; created if absent, replayed on start)")
		peers        = flag.String("peers", "", "comma-separated base URLs of every ring replica, this one included (enables consistent-hash peer fill)")
		self         = flag.String("self", "", "this replica's base URL exactly as listed in -peers")
		peerTimeout  = flag.Duration("peer-timeout", 2*time.Second, "wall-clock bound per peer-fill round trip")
	)
	flag.Parse()
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			fatal(fmt.Errorf("-peers requires -self (this replica's URL as listed)"))
		}
		found := false
		for _, p := range peerList {
			found = found || p == *self
		}
		if !found {
			fatal(fmt.Errorf("-self %q is not in -peers", *self))
		}
	}

	counters := obs.NewCounters()
	cfg := serve.Config{
		Limits:         budget.Limits{Rounds: *rounds, Tuples: *tuples, Nodes: *nodes},
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInflight,
		CacheSize:      *cacheSize,
		Counters:       counters,
		Peers:          peerList,
		Self:           *self,
		PeerTimeout:    *peerTimeout,
	}
	var flushTrace func()
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		jl := obs.NewJSONLSink(w)
		cfg.Sink = jl
		flushTrace = func() {
			if err := jl.Err(); err != nil {
				fatal(err)
			}
			if err := w.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	var vstore *store.Store
	if *storePath != "" {
		var err error
		// The store shares the trace sink so its recover/put/compact events
		// land in the same stream (and counters) as the serving layer's.
		vstore, err = store.Open(*storePath, store.Options{
			Sink: obs.Multi(cfg.Sink, obs.NewCounterSink(counters)),
		})
		if err != nil {
			fatal(err)
		}
		cfg.Store = vstore
		fmt.Printf("tdserve: store %s (%d verdicts recovered)\n", *storePath, vstore.Len())
	}

	s := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	// The drain handler goes in before the address is announced: a client
	// that has its answers may send SIGTERM at once, and a signal that
	// arrives before Notify kills the process undrained.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	// The actual address on its own line, so scripts binding :0 can parse
	// the port before the first request.
	fmt.Printf("tdserve: listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Printf("tdserve: %s — draining (%d engine runs in flight)\n", sig, s.BeginDrain())
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting and wait for handlers first (followers included),
	// then drain the engine WaitGroup and emit serve_shutdown — the
	// trace's final line on a graceful exit.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fatal(err)
	}
	if vstore != nil {
		if err := vstore.Close(); err != nil {
			fatal(err)
		}
	}
	if flushTrace != nil {
		flushTrace()
	}
	fmt.Printf("tdserve: drained. requests=%d cold=%d cache_hits=%d dedups=%d store_hits=%d peer_fills=%d\n",
		counters.Get("serve.requests"), counters.Get("serve.cache_misses"),
		counters.Get("serve.cache_hits"), counters.Get("serve.dedups"),
		counters.Get("serve.store_hits"), counters.Get("serve.peer_fills"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdserve:", err)
	os.Exit(1)
}
