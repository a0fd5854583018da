package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Totals is the aggregate a JSONL event stream replays to. For a chase
// trace it must equal the Stats the run itself reported — that invariant
// is what makes a trace file trustworthy, and it is pinned by
// TestTraceReplayMatchesStats at the repo root.
type Totals struct {
	// Rounds is the highest chase round opened.
	Rounds int
	// TriggersFired sums dep_fired.n.
	TriggersFired int
	// TuplesAdded sums tuples_added.n.
	TuplesAdded int
	// NullsCreated sums nulls_created.n.
	NullsCreated int
	// Homomorphisms sums round_end.homs.
	Homomorphisms int
	// SearchNodes sums search_node.n (nodes across every search layer).
	SearchNodes int
	// RulesAdded counts rule_added events.
	RulesAdded int
	// WarmStarts counts chase_warmstart events, one per resumed lease. The
	// totals of the resumed rounds those events carry are folded into the
	// chase aggregates above, so a resumed lease's trace replays to the same
	// Stats a cold run of the same query reports — but not into
	// PerDepFired: the event carries no per-dependency attribution.
	WarmStarts int
	// PortfolioReallocs counts portfolio_realloc events — the adaptive
	// portfolio's full reallocation decision sequence, withheld grants
	// included.
	PortfolioReallocs int
	// PortfolioGranted sums New - Old over the growing portfolio_realloc
	// decisions, by meter name: the total headroom the governor handed
	// out on each resource.
	PortfolioGranted map[string]int
	// ServeRequests counts serve_request events (one per request the
	// inference service answered).
	ServeRequests int
	// ServeMisses counts serve_request events with source "cold" — the
	// requests that actually ran an engine.
	ServeMisses int
	// ServeCacheHits counts serve_cache_hit events.
	ServeCacheHits int
	// ServeDedups counts serve_dedup events (requests collapsed into an
	// identical in-flight run).
	ServeDedups int
	// ServeShutdowns counts serve_shutdown events (1 for a trace of one
	// complete server lifetime).
	ServeShutdowns int
	// CertChecks counts cert_check events (certificate verifications by
	// the serving layer); CertRejects counts the subset whose verdict was
	// "rejected".
	CertChecks  int
	CertRejects int
	// ServeStoreHits counts serve_store_hit events (requests answered from
	// the disk-backed verdict store — restart-warm hits).
	ServeStoreHits int
	// ServePeerFills counts serve_peer_fill events (local misses forwarded
	// to the ring owner); ServePeerOK counts the subset adopted after
	// certificate verification, ServePeerRejects the subset whose
	// certificate was rejected (each of which fell back to a local run).
	ServePeerFills   int
	ServePeerOK      int
	ServePeerRejects int
	// StoreRecovers counts store_recover events (disk-store opens);
	// StorePuts counts non-skip store_put events; StoreCompactions counts
	// store_compact events.
	StoreRecovers    int
	StorePuts        int
	StoreCompactions int
	// PerDepFired sums dep_fired.n by dependency index.
	PerDepFired map[int]int
	// Verdicts maps emitting layer (event src) to its final verdict
	// string.
	Verdicts map[string]string
	// Stops maps emitting layer to how its budget cut the run short:
	// "exhausted:<resource>" from budget_exhausted, "cancelled" or
	// "deadline" from cancelled. Layers that ran to completion are absent.
	Stops map[string]string
	// Events is the total number of lines replayed.
	Events int
}

// Replay scans a JSONL event stream (as written by JSONLSink) and folds it
// into Totals. Unknown event types are counted in Events and otherwise
// ignored, so streams from newer emitters still replay.
func Replay(r io.Reader) (Totals, error) {
	t := Totals{PerDepFired: make(map[int]int), Verdicts: make(map[string]string),
		Stops: make(map[string]string), PortfolioGranted: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return t, fmt.Errorf("obs: replay line %d: %w", line, err)
		}
		t.Events++
		switch e.Type {
		case EvRoundStart:
			if e.Round > t.Rounds {
				t.Rounds = e.Round
			}
		case EvDepFired:
			t.TriggersFired += e.N
			t.PerDepFired[e.Dep] += e.N
		case EvTuplesAdded:
			t.TuplesAdded += e.N
		case EvNullsCreated:
			t.NullsCreated += e.N
		case EvRoundEnd:
			t.Homomorphisms += e.Homs
		case EvChaseWarmStart:
			t.WarmStarts++
			if e.Round > t.Rounds {
				t.Rounds = e.Round
			}
			t.TriggersFired += e.N
			t.TuplesAdded += e.Added
			t.NullsCreated += e.Nulls
			t.Homomorphisms += e.Homs
		case EvPortfolioRealloc:
			t.PortfolioReallocs++
			if e.New > e.Old {
				t.PortfolioGranted[e.Resource] += e.New - e.Old
			}
		case EvSearchNode:
			t.SearchNodes += e.N
		case EvRuleAdded:
			t.RulesAdded++
		case EvServeRequest:
			t.ServeRequests++
			if e.Source == "cold" {
				t.ServeMisses++
			}
		case EvServeCacheHit:
			t.ServeCacheHits++
		case EvServeDedup:
			t.ServeDedups++
		case EvServeShutdown:
			t.ServeShutdowns++
		case EvCertCheck:
			t.CertChecks++
			if e.Verdict == "rejected" {
				t.CertRejects++
			}
		case EvServeStoreHit:
			t.ServeStoreHits++
		case EvServePeerFill:
			t.ServePeerFills++
			switch e.Verdict {
			case "ok":
				t.ServePeerOK++
			case "rejected":
				t.ServePeerRejects++
			}
		case EvStoreRecover:
			t.StoreRecovers++
		case EvStorePut:
			if e.Source != "skip" {
				t.StorePuts++
			}
		case EvStoreCompact:
			t.StoreCompactions++
		case EvBudgetExhausted:
			t.Stops[e.Src] = "exhausted:" + e.Resource
		case EvCancelled:
			if e.Resource == "deadline" {
				t.Stops[e.Src] = "deadline"
			} else {
				t.Stops[e.Src] = "cancelled"
			}
		case EvVerdict:
			t.Verdicts[e.Src] = e.Verdict
		}
	}
	if err := sc.Err(); err != nil {
		return t, fmt.Errorf("obs: replay: %w", err)
	}
	return t, nil
}
