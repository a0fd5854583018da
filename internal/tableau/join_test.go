package tableau

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"templatedep/internal/relation"
)

// collectMultiset runs an enumeration and returns the multiset of yielded
// assignments (rendered to strings, with multiplicities).
func collectMultiset(run func(yield func(Assignment) bool)) map[string]int {
	out := make(map[string]int)
	run(func(as Assignment) bool {
		out[fmt.Sprint(as)]++
		return true
	})
	return out
}

func multisetsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// randomJoinCase builds a random tableau, instance, and seed over a
// three-column schema.
func randomJoinCase(rng *rand.Rand) (*Tableau, *relation.Instance, Assignment) {
	s := relation.MustSchema("A", "B", "C")
	rows := make([]VarTuple, 1+rng.Intn(4))
	for i := range rows {
		rows[i] = VarTuple{Var(rng.Intn(2)), Var(rng.Intn(3)), Var(rng.Intn(3))}
	}
	tab := MustNew(s, rows)
	inst := relation.NewInstance(s)
	for i := 0; i < rng.Intn(12); i++ {
		inst.MustAdd(relation.Tuple{
			relation.Value(rng.Intn(3)), relation.Value(rng.Intn(4)), relation.Value(rng.Intn(4)),
		})
	}
	var seed Assignment
	if rng.Intn(2) == 0 {
		seed = NewAssignment(tab)
		for a := range seed {
			for v := range seed[a] {
				if rng.Intn(4) == 0 {
					// Sometimes a value absent from the instance.
					seed[a][v] = relation.Value(rng.Intn(5))
				}
			}
		}
	}
	return tab, inst, seed
}

// Property: the index-driven join and the naive scan yield the identical
// multiset of homomorphisms on random tableaux, instances, and seeds, for
// every prefix length.
func TestIndexJoinMatchesScan(t *testing.T) {
	f := func(seed64 int64) bool {
		rng := rand.New(rand.NewSource(seed64))
		tab, inst, seed := randomJoinCase(rng)
		for limit := 0; limit <= tab.Len(); limit++ {
			idx := collectMultiset(func(y func(Assignment) bool) {
				tab.EachPrefixHomomorphism(inst, seed, limit, y)
			})
			scan := collectMultiset(func(y func(Assignment) bool) {
				tab.EachPrefixHomomorphismScan(inst, seed, limit, y)
			})
			if !multisetsEqual(idx, scan) {
				t.Logf("seed %d limit %d: index %v scan %v\ntableau:\n%s\ninstance:\n%s",
					seed64, limit, idx, scan, tab, inst)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Error(err)
	}
}

// Property: range-restricted index enumeration (with and without a pinned
// row) matches the scan over the equivalent candidate slices — the contract
// the semi-naive chase's delta join relies on.
func TestRangeJoinMatchesCandidateScan(t *testing.T) {
	f := func(seed64 int64) bool {
		rng := rand.New(rand.NewSource(seed64))
		tab, inst, seed := randomJoinCase(rng)
		n := inst.Len()
		k := tab.Len()
		ranges := make([]Range, k)
		cands := make([][]relation.Tuple, k)
		for i := range ranges {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			ranges[i] = Range{lo, hi}
			cands[i] = inst.Tuples()[lo:hi]
		}
		pin := rng.Intn(k+1) - 1 // -1 (auto) or a pinned row
		idx := collectMultiset(func(y func(Assignment) bool) {
			tab.EachRangeHomomorphism(inst, ranges, pin, seed, y)
		})
		scan := collectMultiset(func(y func(Assignment) bool) {
			tab.EachCandidateHomomorphism(cands, seed, y)
		})
		if !multisetsEqual(idx, scan) {
			t.Logf("seed %d pin %d ranges %v: index %v scan %v\ntableau:\n%s\ninstance:\n%s",
				seed64, pin, ranges, idx, scan, tab, inst)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
}

// A pinned delta row must make enumeration order independent of how the
// delta window is sharded: concatenating shard results in order equals the
// unsharded enumeration, element for element.
func TestPinnedShardingPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		tab, inst, _ := randomJoinCase(rng)
		n := inst.Len()
		if n < 2 {
			continue
		}
		k := tab.Len()
		ranges := make([]Range, k)
		for i := range ranges {
			ranges[i] = Range{0, n}
		}
		pin := rng.Intn(k)
		var whole []string
		tab.EachRangeHomomorphism(inst, ranges, pin, nil, func(as Assignment) bool {
			whole = append(whole, fmt.Sprint(as))
			return true
		})
		shards := 2 + rng.Intn(3)
		var pieced []string
		for s := 0; s < shards; s++ {
			sr := make([]Range, k)
			copy(sr, ranges)
			sr[pin] = Range{n * s / shards, n * (s + 1) / shards}
			tab.EachRangeHomomorphism(inst, sr, pin, nil, func(as Assignment) bool {
				pieced = append(pieced, fmt.Sprint(as))
				return true
			})
		}
		if len(whole) != len(pieced) {
			t.Fatalf("trial %d: %d homs whole, %d sharded", trial, len(whole), len(pieced))
		}
		for i := range whole {
			if whole[i] != pieced[i] {
				t.Fatalf("trial %d: order diverges at %d: %s vs %s", trial, i, whole[i], pieced[i])
			}
		}
	}
}

// Tuples added to the instance during an enumeration whose ranges end before
// them must change nothing: not the yielded homomorphisms, not their order
// (the join's choice of row at each level). The chase applies each trigger
// from inside its round's enumeration and relies on exactly this. The fixed
// case ties rows 1 and 2 on candidate count once row 0 maps to (1, 1, 1),
// and its growth lengthens row 1's posting list, so a cost estimate that
// looked past a range's end would flip their order.
func TestRangeJoinIgnoresTuplesAddedDuringEnumeration(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	check := func(name string, tab *Tableau, inst *relation.Instance, ranges []Range, pin int, seed Assignment, grow func(*relation.Instance)) {
		t.Helper()
		var want []string
		tab.EachRangeHomomorphism(inst, ranges, pin, seed, func(as Assignment) bool {
			want = append(want, fmt.Sprint(as))
			return true
		})
		grown := inst.Clone()
		var got []string
		tab.EachRangeHomomorphism(grown, ranges, pin, seed, func(as Assignment) bool {
			got = append(got, fmt.Sprint(as))
			grow(grown)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d homs while growing, %d on the fixed instance", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order diverges at %d: %s vs %s", name, i, got[i], want[i])
			}
		}
	}

	tab := MustNew(s, []VarTuple{{0, 0, 0}, {0, 1, 1}, {1, 0, 2}})
	inst := relation.NewInstance(s)
	for _, tup := range []relation.Tuple{{0, 0, 0}, {1, 1, 1}, {1, 2, 2}, {3, 1, 3}} {
		inst.MustAdd(tup)
	}
	next := relation.Value(7)
	check("fixed", tab, inst, FullRanges(inst, 3), -1, nil, func(in *relation.Instance) {
		in.MustAdd(relation.Tuple{1, next, next})
		next++
	})

	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		tab, inst, seed := randomJoinCase(rng)
		n := inst.Len()
		k := tab.Len()
		ranges := make([]Range, k)
		for i := range ranges {
			lo := rng.Intn(n + 1)
			ranges[i] = Range{lo, lo + rng.Intn(n-lo+1)}
		}
		check(fmt.Sprintf("trial %d", trial), tab, inst, ranges, rng.Intn(k+1)-1, seed, func(in *relation.Instance) {
			for i := 0; i < 3; i++ {
				in.MustAdd(relation.Tuple{
					relation.Value(rng.Intn(3)), relation.Value(rng.Intn(5)), relation.Value(rng.Intn(5)),
				})
			}
		})
	}
}
