// Command tdinfer runs the dual semidecision procedure for template
// dependency inference: given a set D of TDs and a goal TD D0 over a shared
// schema, the adaptive portfolio (internal/portfolio) interleaves a chase of
// D0's frozen antecedents under D (semideciding "D implies D0") with an
// enumeration of small finite databases looking for a counterexample
// (semideciding "D0 fails finitely"), and reports the first definitive
// answer and the arm that found it. On schemas of width at most 5 it also
// tries the parity relations as counterexamples, between the two.
//
// Example:
//
//	tdinfer -schema SUPPLIER,STYLE,SIZE \
//	        -dep "R(a,b,c) & R(a,b',c') -> R(a*,b,c')" \
//	        -goal "R(a,b,c) & R(a,b',c') -> R(a*,b,c')"
//
// Dependencies may also be read one per line from a file via -deps, or the
// whole instance generated from a semigroup presentation preset via
// -preset (power|twostep|gap|chain:N|nilpotent:M|tower:K) through the
// Gurevich–Lewis reduction.
//
// Resource governance: -rounds/-tuples meter the chase, -deadline bounds
// wall-clock time, and Ctrl-C interrupts the run at the next governor
// checkpoint. An interrupted run exits 0 with an honest "unknown" verdict,
// partial statistics, and (with -trace) a well-formed replayable trace.
//
// Observability: -trace FILE writes the structured event stream (JSONL, see
// docs/OBSERVABILITY.md) of the whole run; -progress keeps a live one-line
// status on stderr; -depstats prints a per-dependency work table; -proof
// prints the winning chase lease's proof — every tuple it added, with its
// round and dependency — when the verdict is "implied" and the
// counter-database (plus, for -preset runs, the witness semigroup's
// multiplication table when one exists) when it is "finite-counterexample".
//
// Certificates: -cert FILE writes the verdict's verifiable proof object as
// versioned JSON; `tdcheck -verify FILE` re-checks it independently of the
// engines that produced it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/psearch"
	"templatedep/internal/reduction"
	"templatedep/internal/relation"
	"templatedep/internal/search"
	"templatedep/internal/td"
	"templatedep/internal/words"
)

type depFlags []string

func (d *depFlags) String() string     { return strings.Join(*d, "; ") }
func (d *depFlags) Set(s string) error { *d = append(*d, s); return nil }

func main() {
	var (
		schemaFlag = flag.String("schema", "", "comma-separated attribute names")
		depsFile   = flag.String("deps", "", "file with one TD per line (optional)")
		goalFlag   = flag.String("goal", "", "goal TD D0")
		preset     = flag.String("preset", "", "build D and D0 from a presentation preset via the reduction: power|twostep|gap|chain:N|nilpotent:M|tower:K")
		rounds     = flag.Int("rounds", 64, "chase round budget")
		tuples     = flag.Int("tuples", 100000, "chase tuple budget")
		fmTuples   = flag.Int("cx-tuples", 4, "finite-database enumeration: max tuples (bounds the enumerator only; a parity countermodel, tried on schemas of width at most 5, can hold up to 16 tuples)")
		pruneFlag  = flag.String("prune", "symmetry", "counterexample enumeration symmetry breaking: symmetry|none")
		deadline   = flag.Duration("deadline", 0, "wall-clock budget for the whole run (0 = none)")
		proof      = flag.Bool("proof", false, "print the proof object: the winning chase lease's added tuples for implied, the counter-database and witness table for finite-counterexample")
		certFile   = flag.String("cert", "", "write the verdict's verifiable certificate (JSON) to FILE; re-check with tdcheck -verify FILE")
		traceFile  = flag.String("trace", "", "write the structured event stream to FILE as JSONL (see docs/OBSERVABILITY.md)")
		progress   = flag.Bool("progress", false, "live progress line on stderr")
		depStats   = flag.Bool("depstats", false, "print per-dependency chase statistics")
		deps       depFlags
	)
	flag.Var(&deps, "dep", "a TD (repeatable)")
	flag.Parse()

	if *preset == "" && (*schemaFlag == "" || *goalFlag == "") {
		fmt.Fprintln(os.Stderr, "tdinfer: either -preset or both -schema and -goal are required")
		flag.Usage()
		os.Exit(2)
	}
	var (
		schema *relation.Schema
		depSet []*td.TD
		goal   *td.TD
		err    error
		// presetPres and presetInst are set for -preset runs: the source
		// presentation and its reduction, used by the -proof epilogue to
		// search for a semigroup-level witness on finite counterexamples.
		presetPres *words.Presentation
		presetInst *reduction.Instance
	)
	if *preset != "" {
		p, err := words.Preset(*preset)
		if err != nil {
			fatal(err)
		}
		in, err := reduction.Build(p)
		if err != nil {
			fatal(err)
		}
		schema, depSet, goal = in.Schema, in.D, in.D0
		presetPres, presetInst = p, in
	} else {
		schema, err = relation.NewSchema(strings.Split(*schemaFlag, ","))
		if err != nil {
			fatal(err)
		}
		if *depsFile != "" {
			data, err := os.ReadFile(*depsFile)
			if err != nil {
				fatal(err)
			}
			ds, err := td.ParseSet(schema, string(data))
			if err != nil {
				fatal(err)
			}
			depSet = append(depSet, ds...)
		}
		for i, s := range deps {
			d, err := td.Parse(schema, s, fmt.Sprintf("dep%d", i+1))
			if err != nil {
				fatal(err)
			}
			depSet = append(depSet, d)
		}
		goal, err = td.Parse(schema, *goalFlag, "D0")
		if err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the governor's context; every semi-procedure notices
	// at its next checkpoint and returns partial results with an honest
	// "unknown" verdict. A second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	b := core.Budget{}
	b.Governor = budget.New(ctx, budget.Limits{})
	b.Chase = chase.Options{
		Governor:    b.Governor.Child(budget.Limits{Rounds: *rounds, Tuples: *tuples}),
		PerDepStats: *depStats,
	}
	b.FiniteDB.Sizes = budget.Range{Lo: 1, Hi: *fmTuples}
	prune, err := psearch.ParsePrune(*pruneFlag)
	if err != nil {
		fatal(err)
	}
	b.FiniteDB.Prune = prune

	var sinks []obs.Sink
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		jl := obs.NewJSONLSink(w)
		defer func() {
			if err := jl.Err(); err != nil {
				fatal(err)
			}
			if err := w.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		sinks = append(sinks, jl)
	}
	var prog *obs.ProgressSink
	if *progress {
		prog = obs.NewProgressSink(os.Stderr)
		defer prog.Close()
		sinks = append(sinks, prog)
	}
	b.Sink = obs.Multi(sinks...)

	fmt.Printf("schema: %s\n", schema)
	fmt.Printf("|D| = %d dependencies (all full: %v)\n", len(depSet), chase.AllFull(depSet))
	fmt.Printf("D0:  %s\n\n", goal.Format())

	start := time.Now()
	res, err := portfolio.Infer(depSet, goal, b)
	if err != nil {
		fatal(err)
	}
	if res.Winner != "" {
		fmt.Printf("winner: %s arm (%d scheduler ticks, %d reallocation decisions)\n",
			res.Winner, res.Ticks, len(res.Decisions))
	}
	fmt.Printf("verdict: %s\n", res.Verdict)
	if res.Chase != nil {
		st := res.Chase.Stats
		fmt.Printf("chase: %d rounds, %d tuples added, %d triggers fired, fixpoint=%v\n",
			st.Rounds, st.TuplesAdded, st.TriggersFired, res.Chase.FixpointReached)
		if res.Chase.Budget.Stopped() {
			fmt.Printf("chase stopped by budget: %s (partial results above)\n", res.Chase.Budget)
		}
		if *depStats {
			fmt.Println("per-dependency chase work:")
			for i, ds := range st.PerDep {
				fmt.Printf("  %-12s fired=%-6d added=%-6d nulls=%d\n",
					depSet[i].Name(), ds.Fired, ds.Added, ds.Nulls)
			}
		}
	}
	if *proof && res.Verdict == core.Implied {
		fmt.Println("proof trace:")
		for _, f := range res.Chase.Proof() {
			fmt.Printf("  round %d: %s adds %v\n", f.Round, depSet[f.Dep].Name(), f.Tuple)
		}
	}
	if res.Counterexample != nil {
		fmt.Printf("finite counterexample (%d tuples):\n%s", res.Counterexample.Len(), res.Counterexample.String())
	}
	if *proof && res.Verdict == core.FiniteCounterexample {
		printCounterexampleProof(res, presetPres, presetInst, b)
	}
	if *certFile != "" {
		c := res.Cert()
		if c == nil {
			fatal(fmt.Errorf("verdict %s produced no certificate (unknown verdicts are never certified)", res.Verdict))
		}
		data, err := c.Encode()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*certFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("certificate: kind=%s written to %s (re-check with: tdcheck -verify %s)\n", c.Kind, *certFile, *certFile)
	}
	if res.Verdict == core.Unknown {
		switch ctx.Err() {
		case context.Canceled:
			fmt.Printf("interrupted after %v — partial results only.\n", time.Since(start).Round(time.Millisecond))
		case context.DeadlineExceeded:
			fmt.Printf("deadline %v reached — partial results only.\n", *deadline)
		default:
			fmt.Println("inconclusive within budget — raise -rounds / -tuples / -cx-tuples.")
		}
		fmt.Println("(TD inference is undecidable; no budget eliminates this outcome in general.)")
	}
}

// printCounterexampleProof renders the finite-counterexample proof object:
// the counter-database from the certificate, and for -preset runs also the
// semigroup-level view — the witness multiplication table when the model
// search finds one, or an honest note that none exists within budget (the
// database-level and cancellation-model counterexample notions genuinely
// differ, e.g. on the gap preset).
func printCounterexampleProof(res *portfolio.Result, p *words.Presentation, in *reduction.Instance, b core.Budget) {
	if c := res.Cert(); c != nil && c.Model != nil {
		fmt.Println("counterexample proof:")
		printIndented(cert.DescribeModel(c.Model))
	} else if res.Counterexample != nil {
		fmt.Println("counterexample proof: see the database above")
	}
	if p == nil || in == nil {
		return
	}
	sres, err := search.FindCounterModel(p, b.ModelSearch)
	if err != nil || sres.Interpretation == nil {
		fmt.Println("no semigroup witness within the model-search budget — the counterexample is database-level only")
		return
	}
	wit := sres.Interpretation
	m := &cert.Model{Table: wit.Table.Rows(), Assign: make(map[string]int, len(wit.Assign))}
	for s, e := range wit.Assign {
		m.Assign[wit.Alphabet.Name(s)] = int(e)
	}
	printIndented(cert.DescribeModel(m))
}

func printIndented(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println("  " + line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdinfer:", err)
	os.Exit(1)
}
