package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// JSONLSink serializes events as one JSON object per line. Serialization
// is hand-rolled per event type, so each line carries exactly the fields
// the type's schema documents (a zero dependency index is written, not
// omitted). Writes are mutex-serialized; errors are sticky and reported by
// Err rather than interrupting the instrumented run.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewJSONLSink writes events to w. Callers owning a file should wrap it in
// a bufio.Writer and flush after the run.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Event writes e as one JSON line.
func (s *JSONLSink) Event(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	b = append(b, `{"type":"`...)
	b = append(b, e.Type...)
	b = append(b, `","src":"`...)
	b = append(b, e.Src...)
	b = append(b, '"')
	// The request ID is the one cross-cutting field: the serving layer
	// stamps it on every event of a request, whatever the type, so it is
	// written right after src whenever present. Engine streams emitted
	// outside the service never set it, keeping their bytes unchanged.
	if e.Req != "" {
		b = appendStr(b, "req", e.Req)
	}
	appendInt := func(key string, v int) {
		b = append(b, ',', '"')
		b = append(b, key...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	switch e.Type {
	case EvRoundStart:
		appendInt("round", e.Round)
		appendInt("tuples", e.Tuples)
	case EvDeltaSize:
		appendInt("round", e.Round)
		appendInt("n", e.N)
	case EvDepFired:
		appendInt("round", e.Round)
		appendInt("dep", e.Dep)
		appendInt("n", e.N)
		appendInt("added", e.Added)
	case EvNullsCreated, EvTuplesAdded:
		appendInt("round", e.Round)
		appendInt("n", e.N)
	case EvRoundEnd:
		appendInt("round", e.Round)
		appendInt("tuples", e.Tuples)
		appendInt("n", e.N)
		appendInt("homs", e.Homs)
	case EvChaseWarmStart:
		appendInt("round", e.Round)
		appendInt("tuples", e.Tuples)
		appendInt("n", e.N)
		appendInt("added", e.Added)
		appendInt("homs", e.Homs)
		appendInt("nulls", e.Nulls)
	case EvSearchNode:
		appendInt("order", e.Order)
		appendInt("n", e.N)
	case EvRuleAdded:
		appendInt("iter", e.Iter)
		appendInt("rules", e.Rules)
	case EvArmStart:
		b = appendStr(b, "arm", e.Arm)
		appendInt("round", e.Round)
	case EvArmResult:
		b = appendStr(b, "arm", e.Arm)
		appendInt("round", e.Round)
		b = appendStr(b, "verdict", e.Verdict)
	case EvBudgetExhausted, EvCancelled:
		appendInt("round", e.Round)
		b = appendStr(b, "resource", e.Resource)
	case EvVerdict:
		b = appendStr(b, "verdict", e.Verdict)
		appendInt("round", e.Round)
		appendInt("tuples", e.Tuples)
		appendInt("n", e.N)
	case EvPortfolioRealloc:
		b = appendStr(b, "arm", e.Arm)
		b = appendStr(b, "resource", e.Resource)
		appendInt("old", e.Old)
		appendInt("new", e.New)
		b = appendStr(b, "signal", e.Signal)
		appendInt("round", e.Round)
	case EvServeRequest:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		b = appendStr(b, "verdict", e.Verdict)
	case EvServeCacheHit, EvServeDedup:
		b = appendStr(b, "key", e.Key)
	case EvServeShutdown:
		appendInt("n", e.N)
	case EvCertCheck:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		b = appendStr(b, "verdict", e.Verdict)
	case EvServeStoreHit:
		b = appendStr(b, "key", e.Key)
	case EvServePeerFill:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		b = appendStr(b, "verdict", e.Verdict)
	case EvStoreRecover:
		appendInt("n", e.N)
		appendInt("added", e.Added)
		appendInt("bytes", e.Bytes)
	case EvStorePut:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		appendInt("bytes", e.Bytes)
	case EvStoreCompact:
		appendInt("n", e.N)
		appendInt("bytes", e.Bytes)
	case EvFuzzCase:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		b = appendStr(b, "verdict", e.Verdict)
		appendInt("n", e.N)
	case EvFuzzDisagree:
		b = appendStr(b, "key", e.Key)
		b = appendStr(b, "source", e.Source)
		b = appendStr(b, "arm", e.Arm)
		b = appendStr(b, "verdict", e.Verdict)
	default:
		// Unknown types round-trip through encoding/json so custom
		// emitters degrade gracefully instead of silently dropping data.
		s.buf = b[:0]
		line, err := json.Marshal(e)
		if err != nil {
			s.err = err
			return
		}
		line = append(line, '\n')
		if _, err := s.w.Write(line); err != nil {
			s.err = err
		}
		return
	}
	b = append(b, '}', '\n')
	s.buf = b[:0]
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

func appendStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, `":`...)
	// Arm/verdict strings come from a fixed engine vocabulary, but quote
	// defensively for custom emitters.
	q, _ := json.Marshal(v)
	return append(b, q...)
}

// Err reports the first write or serialization error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Counters is a registry of named monotonic counters, safe for concurrent
// use and snapshotable as JSON. Counter names are dotted paths
// ("chase.triggers_fired", "chase.dep.3.fired", "search.nodes", ...); the
// canonical vocabulary is documented in docs/OBSERVABILITY.md.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*atomic.Int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*atomic.Int64)}
}

// Add increments counter name by d (creating it at zero first).
func (c *Counters) Add(name string, d int64) {
	c.mu.RLock()
	v := c.m[name]
	c.mu.RUnlock()
	if v == nil {
		c.mu.Lock()
		if v = c.m[name]; v == nil {
			v = new(atomic.Int64)
			c.m[name] = v
		}
		c.mu.Unlock()
	}
	v.Add(d)
}

// Get returns the current value of name (zero if never incremented).
func (c *Counters) Get(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v := c.m[name]; v != nil {
		return v.Load()
	}
	return 0
}

// Snapshot returns a point-in-time copy of every counter.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v.Load()
	}
	return out
}

// MarshalJSON renders the snapshot as a JSON object with sorted keys
// (encoding/json sorts map keys, so snapshots diff cleanly).
func (c *Counters) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.Snapshot())
}

// Names returns the sorted counter names.
func (c *Counters) Names() []string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CounterSink folds events into a Counters registry using the canonical
// vocabulary of docs/OBSERVABILITY.md: per-layer totals plus per-dependency
// fired/added counters.
type CounterSink struct {
	C *Counters
}

// NewCounterSink returns a sink folding into c.
func NewCounterSink(c *Counters) *CounterSink {
	return &CounterSink{C: c}
}

// Event increments the counters the event's type documents.
func (s *CounterSink) Event(e Event) {
	switch e.Type {
	case EvRoundStart:
		s.C.Add("chase.rounds", 1)
	case EvDeltaSize:
		s.C.Add("chase.delta_tuples", int64(e.N))
	case EvDepFired:
		s.C.Add("chase.triggers_fired", int64(e.N))
		s.C.Add("chase.tuples_added", int64(e.Added))
		prefix := "chase.dep." + strconv.Itoa(e.Dep)
		s.C.Add(prefix+".fired", int64(e.N))
		s.C.Add(prefix+".added", int64(e.Added))
	case EvNullsCreated:
		s.C.Add("chase.nulls_created", int64(e.N))
	case EvRoundEnd:
		s.C.Add("chase.homomorphisms", int64(e.Homs))
	case EvChaseWarmStart:
		s.C.Add("chase.warm_starts", 1)
		s.C.Add("chase.warm_rounds_skipped", int64(e.Round))
	case EvSearchNode:
		s.C.Add(e.Src+".nodes", int64(e.N))
	case EvRuleAdded:
		s.C.Add("rewrite.rules_added", 1)
	case EvArmStart:
		s.C.Add(e.Src+".arm."+e.Arm+".runs", 1)
	case EvPortfolioRealloc:
		s.C.Add("portfolio.reallocs", 1)
		switch {
		case e.New > e.Old:
			s.C.Add("portfolio.granted."+e.Resource, int64(e.New-e.Old))
		case e.New == e.Old:
			s.C.Add("portfolio.withheld", 1)
		default:
			s.C.Add("portfolio.retired", 1)
		}
	case EvBudgetExhausted:
		s.C.Add(e.Src+".budget_exhausted", 1)
	case EvCancelled:
		s.C.Add(e.Src+".cancelled", 1)
	case EvVerdict:
		s.C.Add(e.Src+".verdicts", 1)
	case EvServeRequest:
		s.C.Add("serve.requests", 1)
		// A "cold" request is one that actually ran an engine — the
		// cache-miss count of the serving layer.
		if e.Source == "cold" {
			s.C.Add("serve.cache_misses", 1)
		}
	case EvServeCacheHit:
		s.C.Add("serve.cache_hits", 1)
	case EvServeDedup:
		s.C.Add("serve.dedups", 1)
	case EvServeShutdown:
		s.C.Add("serve.shutdowns", 1)
	case EvCertCheck:
		s.C.Add("serve.cert_checked", 1)
		if e.Verdict == "rejected" {
			s.C.Add("serve.cert_rejected", 1)
		}
	case EvServeStoreHit:
		s.C.Add("serve.store_hits", 1)
	case EvServePeerFill:
		s.C.Add("serve.peer_fills", 1)
		switch e.Verdict {
		case "ok":
			s.C.Add("serve.peer_ok", 1)
		case "rejected":
			s.C.Add("serve.peer_rejected", 1)
		case "unknown":
			s.C.Add("serve.peer_unknown", 1)
		case "down":
			s.C.Add("serve.peer_down", 1)
		}
	case EvStoreRecover:
		s.C.Add("store.recovers", 1)
		s.C.Add("store.recovered_records", int64(e.N))
		s.C.Add("store.superseded_records", int64(e.Added))
		s.C.Add("store.dropped_bytes", int64(e.Bytes))
	case EvStorePut:
		if e.Source == "skip" {
			s.C.Add("store.put_skips", 1)
		} else {
			s.C.Add("store.puts", 1)
			s.C.Add("store.written_bytes", int64(e.Bytes))
		}
	case EvStoreCompact:
		s.C.Add("store.compactions", 1)
		s.C.Add("store.reclaimed_bytes", int64(e.Bytes))
	case EvFuzzCase:
		s.C.Add("fuzz.cases", 1)
		s.C.Add("fuzz.family."+e.Source+".cases", 1)
	case EvFuzzDisagree:
		s.C.Add("fuzz.disagreements", 1)
	}
}

// ProgressSink renders a live, single-line progress display, overwritten
// in place with carriage returns — the `-progress` flag of the CLIs. It
// tracks the most recent chase round, search effort, and arm activity, and
// is safe for concurrent emitters.
type ProgressSink struct {
	mu sync.Mutex
	w  io.Writer
	// last rendered width, for blank-padding shorter lines.
	width int
	// accumulated state.
	round, tuples, delta int
	nodes, order         int
	arm                  string
	events               int
}

// NewProgressSink renders to w (conventionally os.Stderr).
func NewProgressSink(w io.Writer) *ProgressSink {
	return &ProgressSink{w: w}
}

// Event updates the live line.
func (p *ProgressSink) Event(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events++
	redraw := false
	switch e.Type {
	case EvDeltaSize:
		p.delta = e.N
	case EvRoundEnd:
		p.round, p.tuples = e.Round, e.Tuples
		redraw = true
	case EvSearchNode:
		p.nodes += e.N
		p.order = e.Order
		redraw = true
	case EvArmStart:
		p.arm = e.Arm
		redraw = true
	case EvArmResult:
		p.arm = e.Arm + ":" + e.Verdict
		redraw = true
	case EvVerdict:
		if e.Src == "portfolio" || e.Src == "chase" {
			redraw = true
		}
	}
	if redraw {
		p.draw()
	}
}

func (p *ProgressSink) draw() {
	line := fmt.Sprintf("round %d  tuples %d  delta %d  search %d nodes (order %d)",
		p.round, p.tuples, p.delta, p.nodes, p.order)
	if p.arm != "" {
		line += "  arm " + p.arm
	}
	pad := p.width - len(line)
	if pad < 0 {
		pad = 0
	}
	p.width = len(line)
	fmt.Fprintf(p.w, "\r%s%*s", line, pad, "")
}

// Close terminates the live line with a newline so subsequent output
// starts clean. It is a no-op if no event was ever rendered.
func (p *ProgressSink) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.events > 0 {
		fmt.Fprintln(p.w)
	}
}
