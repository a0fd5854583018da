package serve

import (
	"container/list"

	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/store"
)

// CachedVerdict is what the verdict cache stores per canonical key: the
// verdict itself plus enough provenance to answer a repeat request exactly
// as the cold run did. Caching the verdict is sound because the key is
// canonical (see canon.go): every request mapping to the key poses an
// equivalent problem, and the engines are deterministic for a fixed
// budget, so the cold verdict is THE verdict for the whole class.
type CachedVerdict struct {
	Verdict core.Verdict
	// Winner names the arm that produced the verdict on the cold run
	// ("derivation"/"model-search" for presentations, "chase"/"finite-db"
	// for TD instances, "" for Unknown).
	Winner string
	// Stop records how the cold run's budget cut it short ("deadline",
	// "cancelled"), empty when the engines ran to their own conclusion.
	// Cached so a repeat of an Unknown verdict reports the same stop
	// reason as the run it is standing in for.
	Stop string
	// ColdMS is the engine wall-clock of the cold run, echoed on hits so
	// clients can see what the cache saved them.
	ColdMS float64
	// Cert is the verifiable certificate backing a definitive verdict,
	// nil for Unknown verdicts (and for the rare definitive run whose
	// certifying replay itself ran out of budget). The server re-checks
	// it with the independent verifier before storing and again before
	// replaying a hit whose CertOK flag is unset.
	Cert *cert.Certificate
	// CertOK records that Cert passed cert.Check after the cold run. A
	// stored entry with a Cert but CertOK false is re-verified on its
	// next hit and treated as a miss if the check fails.
	CertOK bool
	// Class is the budget class the cold run was answered under (the
	// effective limits of its arms). An Unknown verdict only stands in for
	// requests whose budget does not exceed this class — a larger-budget
	// request re-runs and overwrites the entry.
	Class store.Class
}

// lru is a bounded most-recently-used verdict cache. It is NOT
// self-locking: the server accesses it only under its own mutex, which
// also covers the in-flight table — one lock ordering, no lock juggling.
type lru struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry struct {
	key string
	val CachedVerdict
}

func newLRU(cap int) *lru {
	return &lru{cap: cap, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the cached verdict for key, promoting it to most recent.
func (l *lru) Get(key string) (CachedVerdict, bool) {
	el, ok := l.m[key]
	if !ok {
		return CachedVerdict{}, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry
// when the cache is full. Returns whether an eviction happened.
func (l *lru) Put(key string, v CachedVerdict) bool {
	if el, ok := l.m[key]; ok {
		l.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = v
		return false
	}
	l.m[key] = l.ll.PushFront(&lruEntry{key: key, val: v})
	if l.ll.Len() <= l.cap {
		return false
	}
	oldest := l.ll.Back()
	l.ll.Remove(oldest)
	delete(l.m, oldest.Value.(*lruEntry).key)
	return true
}

// Len returns the number of cached verdicts.
func (l *lru) Len() int { return l.ll.Len() }

// Delete removes key from the cache, reporting whether it was present.
// Used when a stored certificate fails re-verification on a hit: the
// entry is evicted and the request recomputed.
func (l *lru) Delete(key string) bool {
	el, ok := l.m[key]
	if !ok {
		return false
	}
	l.ll.Remove(el)
	delete(l.m, key)
	return true
}
