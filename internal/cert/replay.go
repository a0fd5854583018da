package cert

import (
	"context"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/td"
)

// CertifyImplied produces a chase certificate for an "implied" verdict that
// was reached without a replayable proof object — a Knuth–Bendix
// completion or an untraced chase run. It re-runs the traced restricted
// chase under a fresh governor over ctx capped by lim (zero-value fields
// fall back to chase.DefaultLimits); the chase is deterministic, so a
// sound verdict replays to Implied and the validated trace becomes the
// certificate. Returns nil when the replay does not confirm the verdict
// within lim, or when ctx is cancelled or expires first (the chase stops
// at its next checkpoint) — callers then report the verdict without a
// certificate.
func CertifyImplied(ctx context.Context, doc Problem, deps []*td.TD, d0 *td.TD, lim budget.Limits) *Certificate {
	for _, r := range budget.Resources() {
		if lim.Of(r) == 0 {
			lim = lim.With(r, chase.DefaultLimits.Of(r))
		}
	}
	g := budget.New(ctx, lim)
	res, err := chase.ProveImplies(deps, d0, chase.Options{Governor: g})
	if err != nil || res.Verdict != chase.Implied {
		return nil
	}
	return NewChase(doc, res.Trace)
}
