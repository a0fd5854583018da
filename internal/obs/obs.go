// Package obs is the observability layer of the engine: typed structured
// events, monotonic counters, and the sinks that consume them.
//
// The Main Theorem makes Unknown an honest third verdict, so long budgeted
// runs are the system's normal operating mode. This package exists so a
// user staring at such a run can see WHY it is burning budget — which
// dependency fires, how the semi-naive delta grows, whether the
// counter-model search or the derivation search is advancing — without the
// engine paying for that visibility when nobody is watching.
//
// Design constraints, in order:
//
//  1. Zero dependencies: stdlib only, and no imports from the rest of the
//     repository (every engine package can therefore import obs).
//  2. Zero overhead when disabled: a nil Sink in an Options struct skips
//     every emission behind a single pointer check, and an attached no-op
//     sink costs only the call — Event values are passed on the stack and
//     never escape. This is pinned by TestNopSinkAllocParity at the repo
//     root.
//  3. Deterministic where the engine is deterministic: the chase runs and
//     emits on its caller's goroutine, so its event stream is a pure
//     function of the problem and the limits (pinned against golden traces
//     by TestEventStreamWorkerIndependent).
//
// The full event and counter schema — every type, field, and unit — is
// documented in docs/OBSERVABILITY.md, which CI keeps in sync with the
// EventType constants below.
package obs

// EventType names a structured event. The string value is the wire name
// used by JSONLSink and the "type" field consumers dispatch on.
type EventType string

// Event types emitted by the engine layers. The Src field of an Event
// tells which layer emitted it ("chase", "search", "finitemodel",
// "rewrite", "portfolio", "serve").
const (
	// EvRoundStart opens a fair chase round. Fields: Round, Tuples
	// (instance size entering the round).
	EvRoundStart EventType = "round_start"
	// EvDeltaSize reports the semi-naive delta window of a round. Fields:
	// Round, N (tuples added in the previous round).
	EvDeltaSize EventType = "delta_size"
	// EvDepFired aggregates one dependency's firings within one round.
	// Fields: Round, Dep, N (triggers fired), Added (tuples new to the
	// instance).
	EvDepFired EventType = "dep_fired"
	// EvNullsCreated counts labeled nulls invented in one round. Fields:
	// Round, N.
	EvNullsCreated EventType = "nulls_created"
	// EvTuplesAdded counts tuples materialized in one round. Fields:
	// Round, N.
	EvTuplesAdded EventType = "tuples_added"
	// EvRoundEnd closes a round (also emitted on early exits so partial
	// rounds replay). Fields: Round, Tuples (instance size after), N
	// (triggers fired), Homs (antecedent homomorphisms enumerated; on a
	// round the tuple cap or a cancellation stopped, only the consumed
	// prefix of the enumeration, in task order).
	EvRoundEnd EventType = "round_end"
	// EvChaseWarmStart reports that a chase run reused a prior snapshot
	// instead of re-deriving its rounds, emitted before any round event of
	// the run. It carries the cumulative totals of the skipped prefix so a
	// warm trace still replays to the run's Stats. Fields: Round (completed
	// rounds skipped), Tuples (instance size at the reused boundary), N
	// (triggers fired skipped), Added, Homs, Nulls.
	EvChaseWarmStart EventType = "chase_warmstart"
	// EvSearchNode reports a batch of backtracking nodes in a finite-model
	// search (Src "search" for the semigroup engine, Src "finitemodel" for
	// the instance engine): one event every 4096 nodes and one for each
	// order's remainder. Fields: Order (semigroup order or instance size
	// under search), N (nodes since the previous event).
	EvSearchNode EventType = "search_node"
	// EvRuleAdded reports one oriented rule added by Knuth–Bendix
	// completion. Fields: Iter (completion sweep), Rules (total rules
	// after the addition).
	EvRuleAdded EventType = "rule_added"
	// EvArmStart reports that an arm of the adaptive portfolio (Src
	// "portfolio") opens one budget lease. Arm names the engine arm
	// ("derivation", "kb", "model-search", "chase", "parity",
	// "finite-db"). Fields: Arm, Round (the scheduler tick).
	EvArmStart EventType = "arm_start"
	// EvArmResult reports the close of one portfolio lease. Fields: Arm,
	// Round, Verdict (the arm-level outcome string).
	EvArmResult EventType = "arm_result"
	// EvBudgetExhausted reports that the emitting layer stopped because a
	// governor meter reached its limit. Emitted before the layer's verdict
	// event so partial traces stay closed. Fields: Round (progress at the
	// stop), Resource (the exhausted meter: "rounds", "tuples", "nodes",
	// "words", or "rules").
	EvBudgetExhausted EventType = "budget_exhausted"
	// EvCancelled reports that the emitting layer stopped because its
	// governor's context ended. Emitted before the layer's verdict event.
	// Fields: Round (progress at the stop), Resource ("context" for
	// cancellation, "deadline" for an expired deadline).
	EvCancelled EventType = "cancelled"
	// EvVerdict is the final outcome of the emitting layer. Fields:
	// Verdict, Round (rounds/iterations used), Tuples (final instance
	// size; chase only), N (nodes visited; search only).
	EvVerdict EventType = "verdict"
	// EvPortfolioRealloc records one budget-reallocation decision of the
	// adaptive portfolio governor (Src "portfolio"): at every scheduler
	// tick, for every live arm, the policy either grows the arm's
	// cumulative meter grant or withholds it. Fields: Arm, Resource (the
	// arm's primary meter), Old and New (cumulative grant before/after —
	// New == Old is a withheld grant, New == 0 retires the arm), Signal
	// (the policy signal behind the decision: "seed", "steady", "fed",
	// "stalled", "probe", "capped", or a retirement reason such as
	// "confluent", "refuted", "covered", "exhausted"), Round (the
	// scheduler tick). The decision sequence is a pure function of the
	// problem and options, so replayed traces reproduce it exactly.
	EvPortfolioRealloc EventType = "portfolio_realloc"
	// EvServeRequest closes one inference-service request (Src "serve").
	// Fields: Req, Key, Source ("cold" for a fresh engine run, "cache" for
	// an LRU verdict-cache answer, "dedup" for a request collapsed into an
	// identical in-flight run), Verdict.
	EvServeRequest EventType = "serve_request"
	// EvServeCacheHit reports that a request was answered from the
	// service's canonical verdict cache, emitted before the request's
	// serve_request line. Fields: Req, Key.
	EvServeCacheHit EventType = "serve_cache_hit"
	// EvServeDedup reports that a request joined an identical in-flight
	// run instead of starting its own (singleflight), emitted before the
	// request's serve_request line. Fields: Req, Key.
	EvServeDedup EventType = "serve_dedup"
	// EvServeShutdown reports that the service drained and stopped.
	// Fields: N (engine runs that were in flight when the drain began —
	// each completed, and closed its trace, before this line was written).
	EvServeShutdown EventType = "serve_shutdown"
	// EvCertCheck reports one certificate verification by the serving
	// layer: every certificate is re-checked by the independent verifier
	// before it is stored or replayed from the cache. Fields: Req, Key,
	// Source (the certificate kind: "derivation", "chase", or
	// "finite-model"), Verdict ("ok" or "rejected").
	EvCertCheck EventType = "cert_check"
	// EvServeStoreHit reports that a request was answered from the
	// disk-backed verdict store (a restart-warm hit: present on disk but
	// not yet in the in-memory cache), emitted before the request's
	// serve_request line. Fields: Req, Key.
	EvServeStoreHit EventType = "serve_store_hit"
	// EvServePeerFill reports one peer-fill attempt: a local miss whose
	// canonical key is owned by another replica of the consistent-hash
	// ring was forwarded to that owner. Fields: Req, Key, Source (the
	// owner peer's base URL), Verdict ("ok" — the peer's certificate
	// verified and its verdict was adopted; "rejected" — the peer answered
	// but its certificate failed verification or mismatched the problem;
	// "unknown" — the peer answered without a definitive verdict;
	// "down" — the peer was unreachable or errored). Every non-"ok"
	// attempt falls back to a local engine run.
	EvServePeerFill EventType = "serve_peer_fill"
	// EvStoreRecover reports one disk-store open (Src "store"): the
	// append-log was scanned, the in-memory index rebuilt, and any torn
	// tail truncated. Fields: N (live records indexed), Added (superseded
	// records skipped during the scan — rewritten entries awaiting
	// compaction), Bytes (torn-tail bytes dropped; 0 for a clean log).
	// For a TDVSTOR1 log the counts describe the old log, which is then
	// rewritten as TDVSTOR2 by one store_compact.
	EvStoreRecover EventType = "store_recover"
	// EvStorePut reports one write-through store put (Src "store").
	// Fields: Key, Source ("insert" for a first write, "overwrite" for a
	// class-upgrade or definitive replacement, "skip" when the existing
	// record already supersedes the new one and nothing was written),
	// Bytes (record bytes appended; 0 for "skip").
	EvStorePut EventType = "store_put"
	// EvStoreCompact reports one log compaction (Src "store"): the log was
	// rewritten with only the live record per key. Fields: N (live records
	// kept), Bytes (dead bytes reclaimed).
	EvStoreCompact EventType = "store_compact"
	// EvFuzzCase closes one differential-fuzz case (Src "difffuzz"): every
	// engine in the instance's set ran under a matched governor and the
	// cross-engine invariants were checked. Fields: Key (the corpus
	// instance ID), Source (the corpus family: "tm", "random", or
	// "oracle"), Verdict (the consensus verdict; "unknown" when no engine
	// was definitive), N (engines run).
	EvFuzzCase EventType = "fuzz_case"
	// EvFuzzDisagree reports one invariant violation of a
	// differential-fuzz case, emitted before the case's fuzz_case line.
	// Fields: Key (the corpus instance ID), Source (the corpus family),
	// Arm (the violated invariant: "verdict", "oracle", "cert", or
	// "canon"), Verdict (the human-readable detail).
	EvFuzzDisagree EventType = "fuzz_disagree"
)

// Event is one structured observation. It is a flat value type — emitters
// fill only the fields their EventType documents (see the constants above
// and docs/OBSERVABILITY.md) and sinks must dispatch on Type before
// reading payload fields. Counts are unitless totals; Tuples counts
// instance tuples; Homs counts antecedent homomorphisms.
type Event struct {
	// Type discriminates the payload.
	Type EventType `json:"type"`
	// Src is the emitting layer: "chase", "search", "finitemodel",
	// "rewrite", "portfolio", "serve", "store", or "difffuzz".
	Src string `json:"src"`
	// Round is 1-based (chase fair round, portfolio scheduler tick); 0
	// when not applicable.
	Round int `json:"round,omitempty"`
	// Dep is the dependency index within the engine's input set.
	Dep int `json:"dep,omitempty"`
	// N is the count payload of the type (triggers, tuples, nodes, ...).
	N int `json:"n,omitempty"`
	// Tuples is an instance size.
	Tuples int `json:"tuples,omitempty"`
	// Added counts tuples new to the instance.
	Added int `json:"added,omitempty"`
	// Homs counts antecedent homomorphisms enumerated.
	Homs int `json:"homs,omitempty"`
	// Nulls counts labeled nulls invented (chase_warmstart only; per-round
	// null counts ride on nulls_created.n).
	Nulls int `json:"nulls,omitempty"`
	// Order is the semigroup order (or instance size) under search.
	Order int `json:"order,omitempty"`
	// Iter is a completion sweep index.
	Iter int `json:"iter,omitempty"`
	// Rules is the total rewrite-rule count.
	Rules int `json:"rules,omitempty"`
	// Arm names a dual-semidecision arm.
	Arm string `json:"arm,omitempty"`
	// Resource is the budget detail of a stop event: a meter name for
	// budget_exhausted, "context" or "deadline" for cancelled. For
	// portfolio_realloc it is the meter whose grant the decision changes.
	Resource string `json:"resource,omitempty"`
	// Old and New are the cumulative grant on Resource before and after a
	// portfolio_realloc decision.
	Old int `json:"old,omitempty"`
	New int `json:"new,omitempty"`
	// Signal is the policy signal behind a portfolio_realloc decision.
	Signal string `json:"signal,omitempty"`
	// Verdict is an outcome string of the emitting layer.
	Verdict string `json:"verdict,omitempty"`
	// Req is the serving layer's per-request trace ID. The service stamps
	// it on every event emitted within a request — its own serve_* events
	// and the engine events of the run it triggered — so one JSONL stream
	// from a concurrent server can be split back into per-request traces.
	// Empty outside the serving layer (and absent from those wire lines).
	Req string `json:"req,omitempty"`
	// Key is the canonical cache-key digest of a serve request: identical
	// for requests that are equal up to symbol renaming and equation
	// order.
	Key string `json:"key,omitempty"`
	// Source tells how a serve request was answered: "cold", "cache",
	// "dedup", "store", or "peer". For serve_peer_fill it is the
	// owner peer's base URL; for store_put it is the write disposition.
	Source string `json:"source,omitempty"`
	// Bytes is a byte count: torn-tail bytes dropped by store_recover,
	// record bytes appended by store_put, dead bytes reclaimed by
	// store_compact.
	Bytes int `json:"bytes,omitempty"`
}

// Sink receives events. Implementations must be safe for concurrent use:
// the portfolio runs its arms on one goroutine and the chase emits from its
// caller's, but a server emits from every in-flight request at once into
// one shared sink. Events arrive in program order per emitting
// goroutine; no cross-goroutine ordering is guaranteed.
type Sink interface {
	Event(Event)
}

// Nop is the explicit no-op Sink. A nil Sink in an Options struct is
// cheaper still (the emission site is skipped entirely); Nop exists so the
// "attached but ignoring" path has a benchmarkable implementation.
type Nop struct{}

// Event discards the event.
func (Nop) Event(Event) {}

// multi fans events out to several sinks in order.
type multi []Sink

func (m multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Multi returns a Sink forwarding every event to each of sinks in order.
// Nil entries are dropped; Multi(nil...) returns nil, and a single sink is
// returned unwrapped.
func Multi(sinks ...Sink) Sink {
	var kept multi
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
