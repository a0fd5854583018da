package core

import (
	"context"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/obs"
	"templatedep/internal/search"
	"templatedep/internal/words"
)

// DeepeningOptions configures AnalyzePresentationDeepening.
type DeepeningOptions struct {
	// Initial seeds the first round. Per-round budgets are derived from
	// Governor as child governors, so any governors inside Initial only
	// contribute their meter limits as starting points; every later round
	// doubles the word and node budgets (semigroup orders grow by 1 per
	// round, chase rounds by 4).
	Initial Budget
	// Governor bounds the whole deepening run: its rounds meter caps the
	// number of deepening rounds and its context is shared with every
	// per-round child budget, so a deadline or SIGINT interrupts an arm
	// mid-search instead of waiting for the round to finish. Nil means a
	// 2-second deadline and 16 rounds.
	Governor *budget.Governor
}

// AnalyzePresentationDeepening runs rounds of AnalyzePresentation under
// geometrically increasing budgets until an answer or the governor stops
// it. It is complete in the limit (modulo the governor's deadline): if the
// instance lies in either of the Main Theorem's sets, a large enough round
// certifies it; instances in neither set run until the deadline.
func AnalyzePresentationDeepening(p *words.Presentation, opt DeepeningOptions) (*PresentationResult, int, error) {
	g := opt.Governor
	if g == nil {
		var release context.CancelFunc
		g, release = budget.ForDuration(2*time.Second, budget.Limits{Rounds: 16})
		defer release()
	}
	b := opt.Initial
	wordCap, nodeCap, chaseRounds, orderHi := 64, 512, 4, search.DefaultOrders.Lo
	if ig := b.Closure.Governor; ig != nil && ig.Limit(budget.Words) > 0 {
		wordCap = ig.Limit(budget.Words)
	}
	if ig := b.ModelSearch.Governor; ig != nil && ig.Limit(budget.Nodes) > 0 {
		nodeCap = ig.Limit(budget.Nodes)
	}
	if b.ModelSearch.Orders.Hi > 0 {
		orderHi = b.ModelSearch.Orders.Hi
	}
	var last *PresentationResult
	rounds := 0
	for round := 1; ; round++ {
		if o := g.Charge(budget.Rounds, 1); o.Stopped() {
			return last, rounds, nil
		}
		rounds = round
		b.Closure.Governor = g.Child(budget.Limits{Words: wordCap})
		b.ModelSearch.Governor = g.Child(budget.Limits{Nodes: nodeCap})
		b.ModelSearch.Orders = budget.Range{Lo: search.DefaultOrders.Lo, Hi: orderHi}
		b.Chase.Governor = g.Child(budget.Limits{Rounds: chaseRounds, Tuples: chase.DefaultLimits.Tuples})
		res, err := AnalyzePresentation(p, b)
		if err != nil {
			return nil, round, err
		}
		last = res
		// The deepen_round event closes the block of arm/sub-procedure
		// events this round produced (the stream is sequential here).
		b.emit(obs.Event{Type: obs.EvDeepenRound, Round: round, Verdict: res.Verdict.String()})
		if res.Verdict != Unknown {
			return res, round, nil
		}
		// Governor checkpoint between rounds: with the context also
		// threaded into every arm, overshoot past a deadline is bounded by
		// one arm checkpoint, not a whole round.
		if g.Interrupted().Stopped() {
			return res, round, nil
		}
		wordCap *= 2
		nodeCap *= 2
		orderHi++
		chaseRounds += 4
	}
}
