package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/obs"
	"templatedep/internal/serve"
	"templatedep/internal/store"
)

// limits is the one budget class every request runs under: meters only,
// no wall clock, so a run's work depends on its inputs alone. It is what
//
//	tdserve -rounds 24 -tuples 500 -nodes 150000 -words 40000 -request-timeout 0
//
// serves.
var limits = budget.Limits{Rounds: 24, Tuples: 500, Nodes: 150000, Words: 40000}

const (
	cacheSize      = 1024
	stateCacheSize = 64
	peerTimeout    = 2 * time.Second
)

// replica is one in-process tdserve: a serve.Server configured the way the
// command deploys it, with its own disk store, behind a real loopback TCP
// listener.
type replica struct {
	// url is the replica's base URL, also its identity on the ring.
	url string
	// addr is the listen address ("127.0.0.1:0" picks a port once; a
	// restart rebinds the port the first start got).
	addr  string
	dir   string
	peers []string
	tr    *tracer // nil in untraced runs

	// gen numbers the replica's starts; spans and samples of one start
	// share it.
	gen    int
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	served chan error
}

func newReplica(addr, dir string, tr *tracer) *replica {
	return &replica{addr: addr, url: "http://" + addr, dir: dir, tr: tr}
}

// start opens the replica's store (replaying whatever log is there) and
// begins serving. It returns how long store.Open took.
func (r *replica) start() (time.Duration, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return 0, err
	}
	r.gen = nextGen()
	counters := obs.NewCounters()
	t0 := time.Now()
	st, err := store.Open(store.DefaultPath(r.dir), store.Options{Sink: obs.NewCounterSink(counters)})
	open := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("replica %s: %w", r.url, err)
	}
	r.st = st
	cfg := serve.Config{
		Limits:         limits,
		CacheSize:      cacheSize,
		StateCacheSize: stateCacheSize,
		Workers:        runtime.GOMAXPROCS(0),
		Counters:       counters,
		Store:          st,
		PeerTimeout:    peerTimeout,
	}
	if len(r.peers) > 1 {
		cfg.Peers, cfg.Self = r.peers, r.url
	}
	r.tr.instrument(&cfg, r.gen)
	r.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		st.Close()
		return 0, fmt.Errorf("replica %s: %w", r.url, err)
	}
	r.addr = ln.Addr().String()
	r.url = "http://" + r.addr
	r.hs = &http.Server{Handler: r.tr.middleware(r.srv.Handler(), r.gen)}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	return open, nil
}

// stop shuts the replica down once its load is over: close the listener
// and every connection (the load generator has stopped, and an idle
// connection a client dialed but never used would hold a graceful
// shutdown for five seconds), let engine runs finish, then close the
// store.
func (r *replica) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, r.srv.Shutdown(ctx), r.st.Close())
	if err != nil {
		return fmt.Errorf("replica %s: stop: %w", r.url, err)
	}
	return nil
}
