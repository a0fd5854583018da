// Package budget is the single resource-governance layer for every
// semi-procedure in the repository. The Main Theorem makes both sides of
// the reproduction genuine *semi*-procedures — the chase may run forever on
// instances outside IMPL, the model search on instances outside FCEX — so
// bounded execution is the operating mode, not a convenience. Rather than
// each engine inventing its own ad-hoc cap and exhaustion enum, a Governor
// combines
//
//   - a context.Context carrying cancellation and wall-clock deadline, and
//   - named monotonic resource meters (rounds, tuples, nodes, words, rules),
//
// and every engine reports how it stopped with the same Outcome type.
//
// Engines place checkpoints at natural coarse boundaries (once per chase
// round, once per 4096 search nodes) so cancellation latency is bounded
// while the inner loops stay zero-overhead: hot paths compare against a
// plain int limit fetched once via Limit, and settle their meter usage in
// bulk with Add.
//
// The package depends only on the standard library and is imported by the
// engines, never the reverse.
package budget

import (
	"context"
	"sync/atomic"
	"time"
)

// Resource names a monotonic meter. Each engine charges the meter that
// measures its dominant unit of work.
type Resource uint8

const (
	// Rounds counts chase rounds and completion iterations — one unit per
	// outer fixpoint pass.
	Rounds Resource = iota
	// Tuples counts rows materialized into a chase instance.
	Tuples
	// Nodes counts backtracking-search nodes (model search, finite-database
	// enumeration).
	Nodes
	// Words counts distinct words visited by equational-closure search.
	Words
	// Rules counts rewrite rules added by Knuth–Bendix completion.
	Rules

	numResources
)

func (r Resource) String() string {
	switch r {
	case Rounds:
		return "rounds"
	case Tuples:
		return "tuples"
	case Nodes:
		return "nodes"
	case Words:
		return "words"
	case Rules:
		return "rules"
	}
	return "unknown"
}

// Resources lists every meter, in declaration order; used by documentation
// checks and tests that want to enumerate the namespace.
func Resources() []Resource {
	return []Resource{Rounds, Tuples, Nodes, Words, Rules}
}

// Limits caps the named meters. A zero field leaves that meter ungoverned:
// a Governor with Limits{} stops only when its context does.
type Limits struct {
	Rounds int
	Tuples int
	Nodes  int
	Words  int
	Rules  int
}

func (l Limits) of(r Resource) int {
	switch r {
	case Rounds:
		return l.Rounds
	case Tuples:
		return l.Tuples
	case Nodes:
		return l.Nodes
	case Words:
		return l.Words
	case Rules:
		return l.Rules
	}
	return 0
}

// Of returns the cap l places on r; zero means that meter is uncapped. It
// is the exported counterpart of the internal accessor, for layers that
// manipulate Limits generically by Resource (the adaptive portfolio grows
// every capped meter of an arm's lease by the same multiplier).
func (l Limits) Of(r Resource) int { return l.of(r) }

// With returns a copy of l with the cap on r replaced by n.
func (l Limits) With(r Resource, n int) Limits {
	switch r {
	case Rounds:
		l.Rounds = n
	case Tuples:
		l.Tuples = n
	case Nodes:
		l.Nodes = n
	case Words:
		l.Words = n
	case Rules:
		l.Rules = n
	}
	return l
}

// Range is an inclusive [Lo, Hi] window over a structural search dimension
// (semigroup orders, instance sizes). It is a coordinate system, not a
// meter: enumerating order 6 before order 2 costs the same nodes either
// way, so ranges live beside the Governor rather than inside it.
type Range struct {
	Lo int
	Hi int
}

// Code classifies how a governed run stopped.
type Code uint8

const (
	// OK: the run completed (or is still running) without hitting a limit.
	OK Code = iota
	// CodeExhausted: a resource meter reached its limit.
	CodeExhausted
	// CodeCancelled: the context was cancelled.
	CodeCancelled
	// CodeDeadline: the context's deadline passed.
	CodeDeadline
)

// Outcome is the uniform stop-report every semi-procedure returns instead
// of a private exhaustion enum. The zero value means the run was not cut
// short by its budget.
type Outcome struct {
	Code Code
	// Resource is meaningful only when Code is CodeExhausted.
	Resource Resource
}

// Exhausted builds the outcome for a meter reaching its limit.
func Exhausted(r Resource) Outcome {
	return Outcome{Code: CodeExhausted, Resource: r}
}

// Stopped reports whether the budget cut the run short.
func (o Outcome) Stopped() bool { return o.Code != OK }

// String renders "ok", "exhausted:<resource>", "cancelled", or "deadline".
func (o Outcome) String() string {
	switch o.Code {
	case CodeExhausted:
		return "exhausted:" + o.Resource.String()
	case CodeCancelled:
		return "cancelled"
	case CodeDeadline:
		return "deadline"
	}
	return "ok"
}

// Reason is the wire detail carried by observability events: the meter name
// for exhaustion, "context" for cancellation, "deadline" for a deadline.
func (o Outcome) Reason() string {
	switch o.Code {
	case CodeExhausted:
		return o.Resource.String()
	case CodeCancelled:
		return "context"
	case CodeDeadline:
		return "deadline"
	}
	return ""
}

// Governor carries one run's cancellation context and resource meters.
// Meters are atomic so a governor is safe to charge and read from several
// goroutines; engines nonetheless keep their hot loops on plain locals and
// settle in bulk.
type Governor struct {
	ctx    context.Context
	limits Limits
	used   [numResources]atomic.Int64
}

// New builds a governor over ctx (nil means context.Background()) with the
// given meter limits.
func New(ctx context.Context, l Limits) *Governor {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Governor{ctx: ctx, limits: l}
}

// ForDuration builds a governor whose context expires after d. The cancel
// function must be called to release the timer.
func ForDuration(d time.Duration, l Limits) (*Governor, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	return New(ctx, l), cancel
}

// ForRequest derives a request-scoped governor from a server-wide parent
// context: the returned governor's context is a child of parent — so
// cancelling the server's root context stops every in-flight request at
// its next checkpoint — with its own deadline when d > 0, metering under
// l. This is how a long-running service turns one set of server-wide
// limits into per-request governors: no request can exceed its own
// meters, and no request outlives the server. The cancel function must be
// called when the request finishes to release the timer.
func ForRequest(parent context.Context, d time.Duration, l Limits) (*Governor, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if d > 0 {
		ctx, cancel := context.WithTimeout(parent, d)
		return New(ctx, l), cancel
	}
	ctx, cancel := context.WithCancel(parent)
	return New(ctx, l), cancel
}

// Resolve is the engine-side entry point: a nil governor resolves to a
// fresh one over context.Background() carrying the engine's default limits,
// so ungoverned callers keep the historical bounded behaviour. Engines call
// it once per run (not per engine), keeping reused engines from sharing an
// exhausted meter pool.
func Resolve(g *Governor, defaults Limits) *Governor {
	if g == nil {
		return New(nil, defaults)
	}
	return g
}

// Context exposes the governor's cancellation context (for deriving race
// sub-contexts and passing to the standard library).
func (g *Governor) Context() context.Context { return g.ctx }

// Limits returns the meter limits the governor was built with.
func (g *Governor) Limits() Limits { return g.limits }

// Child derives a governor that shares the parent's context — cancelling
// the parent cancels every child — but meters independently under its own
// limits. The portfolio grows its arms' child limits between leases
// instead of mutating engine options in place.
func (g *Governor) Child(l Limits) *Governor {
	return New(g.ctx, l)
}

// Limit returns the cap on r; zero means unlimited. Engines fetch it once
// per run and compare in their inner loops against a plain int.
func (g *Governor) Limit(r Resource) int { return g.limits.of(r) }

// Used returns the amount charged to r so far.
func (g *Governor) Used(r Resource) int { return int(g.used[r].Load()) }

// Remaining reports the unused headroom on r: Limit(r) - Used(r), floored
// at zero. ok is false when r is unlimited (no cap set), in which case n
// is meaningless. The adaptive portfolio uses this to clamp the cumulative
// grants it hands an arm to the headroom still left in the parent pool.
func (g *Governor) Remaining(r Resource) (n int, ok bool) {
	lim := g.limits.of(r)
	if lim <= 0 {
		return 0, false
	}
	n = lim - g.Used(r)
	if n < 0 {
		n = 0
	}
	return n, true
}

// Add settles n units against r without checking limits — the bulk
// accounting path for engines that enforce caps on hot-loop locals.
func (g *Governor) Add(r Resource, n int) {
	if n != 0 {
		g.used[r].Add(int64(n))
	}
}

// Interrupted is the pure cancellation checkpoint: it reports Cancelled or
// Deadline if the context is done and OK otherwise, touching no meters.
func (g *Governor) Interrupted() Outcome {
	select {
	case <-g.ctx.Done():
		if g.ctx.Err() == context.DeadlineExceeded {
			return Outcome{Code: CodeDeadline}
		}
		return Outcome{Code: CodeCancelled}
	default:
		return Outcome{}
	}
}

// Charge adds n units to r and reports how the run should proceed:
// cancellation and deadline take precedence (so a run that is both out of
// context and out of meter reports the context), then meter exhaustion once
// usage exceeds a non-zero limit. A typical round loop charges Rounds by 1
// at the top of each pass; with limit L the pass numbered L+1 is refused.
func (g *Governor) Charge(r Resource, n int) Outcome {
	used := g.used[r].Add(int64(n))
	if o := g.Interrupted(); o.Stopped() {
		return o
	}
	if lim := g.limits.of(r); lim > 0 && used > int64(lim) {
		return Exhausted(r)
	}
	return Outcome{}
}
