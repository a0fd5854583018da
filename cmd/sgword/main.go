// Command sgword is a workbench for the word problem of the Main Lemma:
// semigroup presentations with zero and the goal equation A0 = 0.
//
// Subcommands:
//
//	sgword derive   -preset twostep            # equational-closure search
//	sgword complete -spec pres.sg              # Knuth–Bendix completion
//	sgword model    -preset power              # finite cancellation model search
//	sgword analyze  -preset power              # the presentation portfolio via the reduction
//
// Each certificate is printed: a derivation chain for "derive", a confluent
// rule system for "complete", a multiplication table plus symbol assignment
// for "model", and the winning arm's certificate or counter-model for
// "analyze", which runs the adaptive portfolio (internal/portfolio): the
// closure, completion, the model search and the chase under growing leases.
//
// analyze additionally takes -progress (live one-line status on stderr —
// useful on slow instances like -preset gap) and -trace FILE (the
// structured JSONL event stream of the whole run). See
// docs/OBSERVABILITY.md for the event and trace schema.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/core"
	"templatedep/internal/obs"
	"templatedep/internal/portfolio"
	"templatedep/internal/psearch"
	"templatedep/internal/reduction"
	"templatedep/internal/rewrite"
	"templatedep/internal/search"
	"templatedep/internal/words"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	sub := os.Args[1]
	fs := flag.NewFlagSet(sub, flag.ExitOnError)
	specFile := fs.String("spec", "", "presentation spec file")
	preset := fs.String("preset", "", "preset presentation: power|twostep|gap|chain:N|nilpotent:M|tower:K")
	maxWords := fs.Int("max-words", 100000, "closure search: word budget")
	maxLen := fs.Int("max-length", 0, "closure search: word length cap (derive: 0 = unbounded; analyze: the widest window, 0 = 12)")
	maxOrder := fs.Int("max-order", 6, "model search: largest semigroup order")
	maxNodes := fs.Int("max-nodes", 5_000_000, "model search: node budget")
	maxRules := fs.Int("max-rules", 500, "completion: rule budget")
	quotient := fs.Int("quotient", 0, "model: try nilpotent quotients up to this class before the table search (0 = off)")
	pruneFlag := fs.String("prune", "symmetry", "model/analyze: symmetry breaking in the model search: symmetry|none")
	emitCert := fs.Bool("cert", false, "derive: emit a machine-checkable certificate instead of the pretty chain")
	checkCert := fs.String("check-cert", "", "derive: validate a certificate file against the presentation and exit")
	progress := fs.Bool("progress", false, "analyze: live progress line on stderr")
	traceFile := fs.String("trace", "", "analyze: write the structured event stream to FILE as JSONL (see docs/OBSERVABILITY.md)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the root context; every semi-procedure notices at its
	// next governor checkpoint and reports unknown with partial counts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	p, err := load(*specFile, *preset)
	if err != nil {
		fatal(err)
	}
	prune, err := psearch.ParsePrune(*pruneFlag)
	if err != nil {
		fatal(err)
	}
	if !(sub == "derive" && *emitCert) {
		fmt.Printf("# presentation over %s, %d equations; goal %s\n\n",
			p.Alphabet, len(p.Equations), p.Goal().Format(p.Alphabet))
	}

	switch sub {
	case "derive":
		if *checkCert != "" {
			data, err := os.ReadFile(*checkCert)
			if err != nil {
				fatal(err)
			}
			d, err := words.ParseDerivation(p, string(data))
			if err != nil {
				fatal(err)
			}
			fmt.Printf("certificate valid: %s = %s in %d steps\n",
				d.From.Format(p.Alphabet), d.To.Format(p.Alphabet), d.Len())
			return
		}
		opts := words.ClosureOptions{
			Governor:  budget.New(ctx, budget.Limits{Words: *maxWords}),
			LengthCap: *maxLen,
		}
		res := words.DeriveGoal(p, opts)
		if *emitCert {
			if res.Derivation == nil {
				fatal(fmt.Errorf("no derivation found (verdict %s); nothing to certify", res.Verdict))
			}
			fmt.Print(res.Derivation.MarshalText(p))
			return
		}
		fmt.Printf("verdict: %s (%d words explored)\n", res.Verdict, res.WordsExplored)
		if res.Budget.Stopped() {
			fmt.Printf("search stopped by budget: %s (partial results)\n", res.Budget)
		}
		if res.Derivation != nil {
			fmt.Println("derivation:")
			fmt.Print(res.Derivation.Format(p))
		}
	case "complete":
		s := rewrite.FromPresentation(p)
		res, err := s.Complete(rewrite.CompletionOptions{
			Governor: budget.New(ctx, budget.Limits{Rules: *maxRules, Rounds: rewrite.DefaultLimits.Rounds}),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("confluent: %v after %d iterations, %d rules\n", res.Confluent, res.Iterations, len(s.Rules))
		if res.Budget.Stopped() {
			fmt.Printf("completion stopped by budget: %s\n", res.Budget)
		}
		if res.Confluent {
			ok, _, err := s.DecideGoal()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("goal decided: %v\nrules:\n%s", ok, s.Format())
		}
	case "model":
		res, err := search.FindCounterModel(p, search.Options{
			Orders:          budget.Range{Lo: search.DefaultOrders.Lo, Hi: *maxOrder},
			Governor:        budget.New(ctx, budget.Limits{Nodes: *maxNodes}),
			QuotientClasses: *quotient,
			Prune:           prune,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("outcome: %s (%d nodes)\n", res.Status(), res.NodesVisited)
		if res.Interpretation != nil {
			fmt.Printf("witness semigroup:\n%s", res.Interpretation.Table.String())
			fmt.Println("assignment:")
			for _, s := range p.Alphabet.Symbols() {
				fmt.Printf("  %s -> %d\n", p.Alphabet.Name(s), int(res.Interpretation.Assign[s]))
			}
		}
	case "analyze":
		g := budget.New(ctx, budget.Limits{})
		b := core.Budget{Governor: g}
		b.Closure = words.ClosureOptions{
			Governor:  g.Child(budget.Limits{Words: *maxWords}),
			LengthCap: *maxLen,
		}
		b.ModelSearch = search.Options{
			Orders:          budget.Range{Lo: search.DefaultOrders.Lo, Hi: *maxOrder},
			Governor:        g.Child(budget.Limits{Nodes: *maxNodes}),
			QuotientClasses: *quotient,
			Prune:           prune,
		}
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
		if *progress {
			prog := obs.NewProgressSink(os.Stderr)
			defer prog.Close()
			sinks = append(sinks, prog)
		}
		b.Sink = obs.Multi(sinks...)
		res, err := portfolio.AnalyzePresentation(p, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("verdict: %s\n", res.Verdict)
		if res.Winner != "" {
			fmt.Printf("winner: %s arm (%d scheduler ticks, %d reallocation decisions)\n",
				res.Winner, res.Ticks, len(res.Decisions))
		}
		in := res.Instance
		if in == nil {
			// A derivation or kb win never needed (D, D0): build it to print.
			if in, err = reduction.Build(p); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("reduction: schema width %d, |D| = %d, max antecedents %d\n",
			in.Schema.Width(), len(in.D), in.MaxAntecedents())
		switch {
		case res.Verdict == core.Implied:
			fmt.Printf("certifies D |= D0:\n%s", cert.Describe(res.Cert()))
		case res.CounterModel != nil:
			fmt.Printf("finite semigroup witness (order %d) and database (%d tuples) certify D0's failure\n",
				res.Witness.Table.Size(), res.CounterModel.Instance.Len())
			fmt.Printf("|P| = %d, |Q| = %d\n", len(res.CounterModel.PElems), len(res.CounterModel.QTriples))
		case res.Counterexample != nil:
			fmt.Printf("the chase's fixpoint (%d tuples) is a finite database that certifies D0's failure\n",
				res.Counterexample.Len())
		case res.GoalRefuted:
			fmt.Println("word problem refuted (A0 = 0 does not follow equationally), but no")
			fmt.Println("finite cancellation witness found: the instance may lie in the gap")
			fmt.Println("between the Main Theorem's two sets")
		default:
			fmt.Println("inconclusive within budget (the undecidability gap in action)")
		}
		if res.Stop.Stopped() {
			fmt.Printf("run stopped by budget: %s\n", res.Stop)
		}
	default:
		usage()
	}
}

func load(specFile, preset string) (*words.Presentation, error) {
	switch {
	case specFile != "" && preset != "":
		return nil, fmt.Errorf("use either -spec or -preset, not both")
	case specFile != "":
		data, err := os.ReadFile(specFile)
		if err != nil {
			return nil, err
		}
		return words.ParseSpec(string(data))
	case preset != "":
		return words.Preset(preset)
	default:
		return nil, fmt.Errorf("one of -spec or -preset is required")
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sgword {derive|complete|model|analyze} [-spec FILE | -preset NAME] [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgword:", err)
	os.Exit(1)
}
