// Command tdcheck audits a concrete database against a set of template
// dependencies: every violated dependency is reported with a violating
// match, and -repair chases the database to a fixpoint that satisfies all
// (full) dependencies, printing the tuples that must be added.
//
// Database files hold one fact per line: R(StLaurent, EveningDress, 10).
// Dependency files hold one TD per line in the td syntax.
//
// With -verify CERT, tdcheck is instead the standalone certificate
// checker: it decodes the JSON certificate a definitive verdict carries
// (tdinfer -cert, sgword, or POST /infer?cert=1), re-checks the proof
// independently of the engines that produced it, and prints a readable
// rendering. Exit 0 means the certificate is valid; any tampering —
// corrupted steps, forged derivations, witness tables that fail a
// dependency, truncated JSON — exits 1 with a precise error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"templatedep/internal/budget"
	"templatedep/internal/cert"
	"templatedep/internal/chase"
	"templatedep/internal/relation"
	"templatedep/internal/tableau"
	"templatedep/internal/td"
)

func main() {
	var (
		schemaFlag = flag.String("schema", "", "comma-separated attribute names (required)")
		dbFile     = flag.String("db", "", "database file (required)")
		depsFile   = flag.String("deps", "", "dependency file (required)")
		repair     = flag.Bool("repair", false, "chase the database and print the repair tuples")
		rounds     = flag.Int("rounds", 64, "chase round budget for -repair")
		verify     = flag.String("verify", "", "verify the JSON certificate in FILE (standalone mode; ignores -schema/-db/-deps)")
	)
	flag.Parse()
	if *verify != "" {
		verifyCert(*verify)
		return
	}
	if *schemaFlag == "" || *dbFile == "" || *depsFile == "" {
		fmt.Fprintln(os.Stderr, "tdcheck: -schema, -db and -deps are required (or -verify CERT)")
		flag.Usage()
		os.Exit(2)
	}
	schema, err := relation.NewSchema(strings.Split(*schemaFlag, ","))
	if err != nil {
		fatal(err)
	}
	dbText, err := os.ReadFile(*dbFile)
	if err != nil {
		fatal(err)
	}
	inst, namer, err := relation.ParseInstance(schema, string(dbText))
	if err != nil {
		fatal(err)
	}
	depText, err := os.ReadFile(*depsFile)
	if err != nil {
		fatal(err)
	}
	deps, err := td.ParseSet(schema, string(depText))
	if err != nil {
		fatal(err)
	}

	fmt.Printf("database: %d tuples over %s\n", inst.Len(), schema)
	violations := 0
	for _, d := range deps {
		ok, witness := d.Satisfies(inst)
		if ok {
			fmt.Printf("  OK        %s\n", d)
			continue
		}
		violations++
		fmt.Printf("  VIOLATED  %s\n", d)
		fmt.Printf("            match with no conclusion tuple: %s\n", describeMatch(d, witness, namer))
	}
	if violations == 0 {
		fmt.Println("all dependencies hold")
		return
	}
	fmt.Printf("%d of %d dependencies violated\n", violations, len(deps))

	if *repair {
		e, err := chase.NewEngine(schema, deps, chase.Options{Governor: budget.New(nil, budget.Limits{Rounds: *rounds, Tuples: 100000})})
		if err != nil {
			fatal(err)
		}
		res := e.Chase(inst, nil)
		if !res.FixpointReached {
			fmt.Printf("repair chase did not reach a fixpoint within %d rounds (embedded dependencies may chase forever)\n", *rounds)
			os.Exit(1)
		}
		fmt.Printf("repair: %d tuples to add (chase fixpoint has %d):\n", res.Instance.Len()-inst.Len(), res.Instance.Len())
		for _, t := range res.Instance.Tuples() {
			if !inst.Contains(t) {
				fmt.Printf("  + %s\n", namer.FormatTuple(t))
			}
		}
	}
	os.Exit(1)
}

// describeMatch renders the antecedent bindings of a violation witness.
func describeMatch(d *td.TD, as tableau.Assignment, namer *relation.Namer) string {
	if as == nil {
		return "(none)"
	}
	var parts []string
	for i := 0; i < d.NumAntecedents(); i++ {
		row := d.Antecedent(i)
		tup := make(relation.Tuple, len(row))
		for a, v := range row {
			tup[a] = as[a][v]
		}
		parts = append(parts, namer.FormatTuple(tup))
	}
	return strings.Join(parts, " & ")
}

// verifyCert runs the standalone certificate checker: strict decode, full
// independent re-check, readable rendering. The process exit code IS the
// verification verdict.
func verifyCert(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	c, err := cert.Decode(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if err := cert.Check(c); err != nil {
		fmt.Print(cert.Describe(c))
		fatal(fmt.Errorf("%s: REJECTED: %w", path, err))
	}
	fmt.Print(cert.Describe(c))
	fmt.Printf("certificate OK: the %s proof checks out; verdict %q is certified\n", c.Kind, c.Verdict)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdcheck:", err)
	os.Exit(1)
}
