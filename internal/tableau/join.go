// Index-driven homomorphism enumeration.
//
// The naive enumeration in tableau.go (EachCandidateHomomorphism) scans
// every candidate tuple at every backtracking level. The join here instead
// exploits the inverted index an Instance already maintains: at each level
// it picks the cheapest remaining row (dynamic selectivity ordering) and
// enumerates only the tuples on the posting lists of that row's already
// bound variables, intersecting the shortest lists when several variables
// are bound. Rows with no bound variables fall back to their index range.
//
// Candidate restriction is expressed as an index Range per row rather than
// an explicit tuple slice: the chase's semi-naive delta decomposition only
// ever restricts rows to contiguous index windows of the growing instance
// (old / delta / all), and posting lists store ascending tuple indices, so
// a window is a binary search away. The scan-based enumeration survives in
// tableau.go as the ablation reference and as the general API for candidate
// sets that are not index windows.
package tableau

import (
	"sort"

	"templatedep/internal/relation"
)

// Range restricts a tableau row to instance tuples with index in [Lo, Hi).
type Range struct{ Lo, Hi int }

// FullRanges returns n ranges covering the whole instance, the candidate
// restriction equivalent to EachPrefixHomomorphism's rowLimit = n.
func FullRanges(inst *relation.Instance, n int) []Range {
	out := make([]Range, n)
	for i := range out {
		out[i] = Range{0, inst.Len()}
	}
	return out
}

// EachRangeHomomorphism enumerates homomorphisms of the first len(ranges)
// rows of t into inst, where row i may only map to tuples with index in
// ranges[i], using the index-driven join. pin >= 0 forces that row to the
// outermost backtracking level (the chase pins the delta row, which applies
// the most selective restriction first); pin < 0 lets the selectivity
// heuristic choose every level. A pinned row enumerates its candidates in
// ascending instance index within its range, so splitting that range across
// calls and concatenating the yields in range order reproduces the unsplit
// enumeration exactly. The assignment passed to yield is reused across
// calls — clone it to retain. Enumeration order is deterministic but
// otherwise unspecified; the set of yielded homomorphisms is exactly that of
// the scan-based enumeration.
func (t *Tableau) EachRangeHomomorphism(inst *relation.Instance, ranges []Range, pin int, seed Assignment, yield func(Assignment) bool) {
	n := len(ranges)
	if n > len(t.rows) {
		n = len(t.rows)
		ranges = ranges[:n]
	}
	// Join state is pooled per tableau: the chase calls this once per
	// (dependency, delta position) every round, and the assignment/scratch
	// allocations would otherwise dominate small rounds.
	j, _ := t.joinPool.Get().(*join)
	if j == nil {
		j = &join{
			t:      t,
			as:     NewAssignment(t),
			used:   make([]bool, len(t.rows)),
			levels: make([]levelBuf, len(t.rows)),
		}
	}
	for a := range j.as {
		col := j.as[a]
		for i := range col {
			col[i] = Unbound
		}
	}
	if seed != nil {
		for a := range seed {
			for v, val := range seed[a] {
				if val != Unbound {
					j.as[a][v] = val
				}
			}
		}
	}
	j.inst, j.ranges, j.n, j.pin, j.yield = inst, ranges, n, pin, yield
	j.trail = j.trail[:0]
	if n == 0 {
		yield(j.as)
	} else {
		j.rec(0)
	}
	j.inst, j.ranges, j.yield = nil, nil, nil
	t.joinPool.Put(j)
}

// levelBuf holds per-depth scratch so the recursion allocates nothing per
// node after warm-up.
type levelBuf struct {
	lists [][]int // clipped posting lists of the chosen row's bound vars
	buf   []int   // intersection output
}

type join struct {
	t      *Tableau
	inst   *relation.Instance
	ranges []Range
	as     Assignment
	used   []bool
	trail  [][2]int
	levels []levelBuf
	n      int // rows being matched (a prefix of the tableau)
	pin    int // row forced to depth 0, or < 0
	yield  func(Assignment) bool
}

// clip returns the part of an ascending posting list with values in
// [lo, hi).
func clip(list []int, lo, hi int) []int {
	i0 := sort.SearchInts(list, lo)
	i1 := i0 + sort.SearchInts(list[i0:], hi)
	return list[i0:i1]
}

// cost estimates the number of candidate tuples for row ri under the
// current assignment: the shortest in-range posting list among its bound
// variables, or the range width when nothing is bound yet.
func (j *join) cost(ri int) int {
	r := j.ranges[ri]
	span := r.Hi - r.Lo
	if span < 0 {
		span = 0
	}
	best := span
	for a, v := range j.t.rows[ri] {
		if bound := j.as[a][v]; bound != Unbound {
			if c := len(clip(j.inst.Matching(relation.Attr(a), bound), r.Lo, r.Hi)); c < best {
				best = c
			}
		}
	}
	return best
}

// pick chooses the row for this backtracking level and materializes its
// candidate tuple indices. wholeRange reports that no variable of the row
// is bound yet, so every index in [lo, hi) is a candidate and cands is
// meaningless.
func (j *join) pick(depth int) (ri int, cands []int, wholeRange bool, lo, hi int) {
	if depth == 0 && j.pin >= 0 && j.pin < j.n {
		ri = j.pin
	} else {
		ri = -1
		best := 0
		for r := 0; r < j.n; r++ {
			if j.used[r] {
				continue
			}
			c := j.cost(r)
			if ri < 0 || c < best {
				ri, best = r, c
			}
		}
	}
	rng := j.ranges[ri]
	lo, hi = rng.Lo, rng.Hi
	lb := &j.levels[depth]
	lb.lists = lb.lists[:0]
	for a, v := range j.t.rows[ri] {
		if bound := j.as[a][v]; bound != Unbound {
			lb.lists = append(lb.lists, clip(j.inst.Matching(relation.Attr(a), bound), lo, hi))
		}
	}
	switch len(lb.lists) {
	case 0:
		return ri, nil, true, lo, hi
	case 1:
		return ri, lb.lists[0], false, lo, hi
	}
	// Intersect, driving with the shortest list (insertion sort: the list
	// count is bounded by the schema width).
	for i := 1; i < len(lb.lists); i++ {
		for k := i; k > 0 && len(lb.lists[k]) < len(lb.lists[k-1]); k-- {
			lb.lists[k], lb.lists[k-1] = lb.lists[k-1], lb.lists[k]
		}
	}
	lb.buf = intersect(lb.buf[:0], lb.lists)
	return ri, lb.buf, false, lo, hi
}

// intersect writes the intersection of ascending int lists into dst; the
// first list must be the shortest (the driver).
func intersect(dst []int, lists [][]int) []int {
outer:
	for _, x := range lists[0] {
		for _, l := range lists[1:] {
			k := sort.SearchInts(l, x)
			if k == len(l) || l[k] != x {
				continue outer
			}
		}
		dst = append(dst, x)
	}
	return dst
}

func (j *join) rec(depth int) bool {
	if depth == j.n {
		return j.yield(j.as)
	}
	ri, cands, wholeRange, lo, hi := j.pick(depth)
	j.used[ri] = true
	row := j.t.rows[ri]
	try := func(tup relation.Tuple) bool {
		mark := len(j.trail)
		if matchRow(row, tup, j.as, &j.trail) {
			if !j.rec(depth + 1) {
				return false
			}
			for _, tr := range j.trail[mark:] {
				j.as[tr[0]][tr[1]] = Unbound
			}
			j.trail = j.trail[:mark]
		}
		return true
	}
	ok := true
	if wholeRange {
		for idx := lo; idx < hi && ok; idx++ {
			ok = try(j.inst.Tuple(idx))
		}
	} else {
		for _, idx := range cands {
			if !ok {
				break
			}
			ok = try(j.inst.Tuple(idx))
		}
	}
	j.used[ri] = false
	return ok
}
