// Machine-readable benchmark emission: `tdbench -benchjson FILE` measures
// the F1–F3 experiments plus the chase implication/decision workloads with
// testing.Benchmark and writes one JSON document, so the performance
// trajectory of the engine is tracked in-repo from PR to PR. Each chase
// workload is one /serial arm.
package main

import (
	"fmt"
	"testing"

	"templatedep/internal/budget"
	"templatedep/internal/chase"
	"templatedep/internal/diagram"
	"templatedep/internal/obs"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// TuplesPerSec is the canonical-database tuple throughput of chase
	// workloads (tuples in the final instance per second of chase time);
	// zero for workloads that do not run the chase.
	TuplesPerSec float64 `json:"tuples_per_sec,omitempty"`
	// Verdict is the chase verdict of the workload (chase workloads only);
	// -checkbench requires it.
	Verdict string `json:"verdict,omitempty"`
	// Counters is the observability counter snapshot of one un-timed run of
	// the workload (-metrics; chase workloads only). The timed loop always
	// runs sink-free, so counters never perturb ns_per_op.
	Counters map[string]int64 `json:"counters,omitempty"`
}

type benchReport struct {
	reportHost
	Results []benchResult `json:"results"`
}

func writeBenchJSON(path string, metrics bool) {
	fail := reportFail("bench")
	reportProbe(path, fail)

	rep := benchReport{reportHost: newReportHost()}

	record := func(name string, tuples int, verdict string, counters map[string]int64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		br := benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Verdict:     verdict,
			Counters:    counters,
		}
		if tuples > 0 && br.NsPerOp > 0 {
			br.TuplesPerSec = float64(tuples) * 1e9 / br.NsPerOp
		}
		rep.Results = append(rep.Results, br)
		fmt.Printf("%-34s %14.0f ns/op %8d allocs/op\n", name, br.NsPerOp, br.AllocsPerOp)
	}

	// chaseCounters runs the workload once with a counter sink and returns
	// the snapshot (nil unless -metrics). The benchmarked options never
	// carry the sink.
	chaseCounters := func(deps []*td.TD, goal *td.TD, opt chase.Options) map[string]int64 {
		if !metrics {
			return nil
		}
		ctrs := obs.NewCounters()
		opt.Sink = obs.NewCounterSink(ctrs)
		if _, err := chase.Implies(deps, goal, opt); err != nil {
			check(err)
		}
		return ctrs.Snapshot()
	}

	// F1: diagram round trip.
	record("f1/roundtrip", 0, "", nil, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, d := diagram.Fig1()
			back, err := g.TD("roundtrip")
			check(err)
			if back.Format() != d.Format() {
				b.Fatal("round trip mismatch")
			}
		}
	})

	// F2: bridge construction for growing word lengths.
	twostep := reduction.MustBuild(words.TwoStepPresentation())
	bSym := twostep.Pres.Alphabet.MustSymbol("b")
	for _, k := range []int{1, 4, 16, 64} {
		w := make(words.Word, k)
		for i := range w {
			w[i] = bSym
		}
		record(fmt.Sprintf("f2/bridge_len%d", k), 0, "", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := twostep.BuildBridge(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// F3: full reduction construction per presentation.
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"power", words.PowerPresentation()},
		{"chain4", words.ChainPresentation(4)},
		{"nilpotent4", words.NilpotentSafePresentation(4)},
	} {
		record("f3/build_"+tc.name, 0, "", nil, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reduction.MustBuild(tc.p)
			}
		})
	}

	// Chase implication on the reduction output. Every iteration gets a
	// FRESH governor: budget meters accumulate across runs, so a shared
	// governor exhausts after the first few iterations and the loop would
	// measure setup-cost no-ops, not chases.
	for _, tc := range []struct {
		name string
		p    *words.Presentation
	}{
		{"chain1", words.ChainPresentation(1)},
		{"chain2", words.ChainPresentation(2)},
		{"chain3", words.ChainPresentation(3)},
	} {
		in := reduction.MustBuild(tc.p)
		mkOpt := func() chase.Options {
			return chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: 32, Tuples: 200000})}
		}
		res, err := chase.Implies(in.D, in.D0, mkOpt())
		check(err)
		tuples := res.Instance.Len()
		record(fmt.Sprintf("chase/implies_%s/serial", tc.name), tuples,
			res.Verdict.String(), chaseCounters(in.D, in.D0, mkOpt()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := chase.Implies(in.D, in.D0, mkOpt()); err != nil {
						b.Fatal(err)
					}
				}
			})
	}

	// Full-TD decision (E6 shape): terminating chase on full dependencies.
	s := relation.MustSchema("A", "B", "C")
	joinDep := td.MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a, b, c')", "join")
	goal := td.MustParse(s, "R(a, b0, c0) & R(a, b1, c1) & R(a, b2, c2) -> R(a, b0, c2)", "goal")
	deps := []*td.TD{joinDep}
	res, err := chase.Implies(deps, goal, chase.Options{})
	check(err)
	record("chase/decide_full/serial", res.Instance.Len(), res.Verdict.String(),
		chaseCounters(deps, goal, chase.Options{}), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Implies(deps, goal, chase.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})

	reportWrite(path, rep, fail)
	fmt.Printf("\nwrote %d results to %s\n", len(rep.Results), path)
}

// benchExpectedPlain lists the non-chase workloads writeBenchJSON emits;
// benchExpectedChase lists the chase workloads, each present as a /serial
// arm. -checkbench validates against these, so renaming a workload in
// the generator without updating the committed report (or vice versa) is a
// CI failure, not a silent drift.
var benchExpectedPlain = []string{
	"f1/roundtrip",
	"f2/bridge_len1", "f2/bridge_len4", "f2/bridge_len16", "f2/bridge_len64",
	"f3/build_power", "f3/build_chain4", "f3/build_nilpotent4",
}

var benchExpectedChase = []string{
	"chase/implies_chain1", "chase/implies_chain2", "chase/implies_chain3",
	"chase/decide_full",
}

// checkBenchJSON validates a BENCH_chase.json structurally, mirroring
// -checksearch: the report must parse, every expected workload must be
// present (chase workloads as a /serial arm with a verdict) and
// measurements must be positive.
func checkBenchJSON(path string) {
	fail := reportFail(path)
	var rep benchReport
	reportRead(path, &rep, false, fail)
	byName := make(map[string]benchResult, len(rep.Results))
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			fail("workload %s: non-positive ns_per_op", r.Name)
		}
		byName[r.Name] = r
	}
	for _, name := range benchExpectedPlain {
		if _, ok := byName[name]; !ok {
			fail("missing workload %s", name)
		}
	}
	for _, base := range benchExpectedChase {
		ser, ok := byName[base+"/serial"]
		if !ok {
			fail("workload %s: missing /serial arm", base)
		}
		if ser.Verdict == "" {
			fail("workload %s: missing verdict (regenerate with a current tdbench)", base)
		}
	}
	fmt.Printf("%s: %d results, all %d+%d workloads present\n",
		path, len(rep.Results), len(benchExpectedPlain), len(benchExpectedChase))
}
