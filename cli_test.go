package templatedep_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"templatedep/internal/obs"
)

// TestCLI builds every command and drives it end to end: the acceptance
// test a release would gate on. Skipped under -short (it shells out to the
// Go toolchain).
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	run := func(name string, wantExit int, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%s %v: exit %d, want %d\n%s", name, args, exit, wantExit, out)
		}
		return string(out)
	}

	t.Run("tdinfer", func(t *testing.T) {
		out := run("tdinfer", 0,
			"-schema", "SUPPLIER,STYLE,SIZE",
			"-dep", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')",
			"-goal", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')",
			"-proof")
		if !strings.Contains(out, "verdict: implied") {
			t.Errorf("output:\n%s", out)
		}
		if !strings.Contains(out, "proof trace") {
			t.Errorf("missing trace:\n%s", out)
		}
	})

	t.Run("tdinfer-trace", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "events.jsonl")
		out := run("tdinfer", 0,
			"-schema", "SUPPLIER,STYLE,SIZE",
			"-dep", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')",
			"-goal", "R(a,b,c) & R(a,b',c') -> R(a*,b,c')",
			"-trace", trace, "-depstats", "-progress")
		if !strings.Contains(out, "per-dependency chase work:") {
			t.Errorf("missing depstats table:\n%s", out)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := obs.Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trace does not replay: %v\n%s", err, data)
		}
		if tot.Rounds == 0 || tot.Verdicts["chase"] != "implied" || tot.Verdicts["portfolio"] != "implied" {
			t.Errorf("replay totals %+v from trace:\n%s", tot, data)
		}
		if tot.PortfolioReallocs == 0 {
			t.Errorf("replay totals %+v: expected portfolio_realloc events in the trace", tot)
		}
	})

	// The governance contract end to end: a wall-clock budget on the
	// undecidable gap instance exits 0 with an honest unknown verdict,
	// partial chase statistics, and a trace that still replays cleanly.
	// -cx-tuples 1 keeps the portfolio from settling this instance (see
	// tdinfer-portfolio-gap below): the finite-db arm covers size 1 and
	// retires, so only the diverging chase is left for the deadline to stop.
	t.Run("tdinfer-deadline", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "gap.jsonl")
		out := run("tdinfer", 0,
			"-preset", "gap", "-cx-tuples", "1", "-deadline", "100ms",
			"-rounds", "100000", "-tuples", "10000000",
			"-trace", trace)
		if !strings.Contains(out, "verdict: unknown") {
			t.Errorf("output:\n%s", out)
		}
		if !strings.Contains(out, "chase stopped by budget: deadline") {
			t.Errorf("missing budget stop line:\n%s", out)
		}
		if !strings.Contains(out, "deadline 100ms reached") {
			t.Errorf("missing deadline notice:\n%s", out)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := obs.Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("partial trace does not replay: %v\n%s", err, data)
		}
		if tot.Stops["chase"] != "deadline" {
			t.Errorf("replay stops %v, want chase stopped by deadline", tot.Stops)
		}
		if tot.Verdicts["chase"] != "unknown" || tot.Verdicts["portfolio"] != "unknown" {
			t.Errorf("replay verdicts %v, want unknown from chase and portfolio", tot.Verdicts)
		}
		if tot.Rounds == 0 || tot.TuplesAdded == 0 {
			t.Errorf("replay totals %+v: expected partial chase progress before the deadline", tot)
		}
	})

	// The adaptive portfolio on the same gap instance at the default
	// -cx-tuples: the finite-db arm gets leases alongside the diverging
	// chase and finds the 2-tuple database that satisfies D and violates
	// D0 — an answer a chase-first sequential run never reaches because
	// the chase drains its whole budget first. (The word-level gap
	// property rules out finite CANCELLATION-MODEL counterexamples, not
	// arbitrary finite databases, so the presentation-level verdict for
	// gap stays unknown.)
	t.Run("tdinfer-portfolio-gap", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "gap-portfolio.jsonl")
		out := run("tdinfer", 0,
			"-preset", "gap", "-deadline", "30s",
			"-trace", trace)
		if !strings.Contains(out, "verdict: finite-counterexample") {
			t.Errorf("output:\n%s", out)
		}
		if !strings.Contains(out, "winner: finite-db arm") {
			t.Errorf("missing winner line:\n%s", out)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := obs.Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("portfolio trace does not replay: %v\n%s", err, data)
		}
		if tot.Verdicts["portfolio"] != "finite-counterexample" {
			t.Errorf("replay verdicts %v, want finite-counterexample from portfolio", tot.Verdicts)
		}
		if tot.PortfolioReallocs == 0 {
			t.Errorf("replay totals %+v: expected reallocation decisions", tot)
		}
	})

	// Golden traces of the chase arm's resume path: each run's chase lines
	// must match the committed file byte for byte. On gap the third lease
	// stops inside round 5 at the tuple cap and the fourth resumes from
	// round 4's boundary, with or without -depstats. On tower:2 the chase
	// resumes twice and wins at its fixpoint.
	for _, tc := range []struct {
		name, golden string
		args         []string
	}{
		{"chase-golden-gap-resume", "gap-resume.jsonl",
			[]string{"tdinfer", "-preset", "gap", "-rounds", "8", "-tuples", "40000", "-cx-tuples", "1"}},
		{"chase-golden-gap-resume-depstats", "gap-resume.jsonl",
			[]string{"tdinfer", "-preset", "gap", "-rounds", "8", "-tuples", "40000", "-cx-tuples", "1", "-depstats"}},
		{"chase-golden-tower2", "tower2.jsonl",
			[]string{"sgword", "analyze", "-preset", "tower:2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.jsonl")
			run(tc.args[0], 0, append(tc.args[1:], "-trace", trace)...)
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, line := range bytes.SplitAfter(data, []byte("\n")) {
				if bytes.Contains(line, []byte(`"src":"chase"`)) {
					got.Write(line)
				}
			}
			want, err := os.ReadFile(filepath.Join("testdata", "chase", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("chase lines differ from testdata/chase/%s: got %d lines, want %d\n%s",
					tc.golden, bytes.Count(got.Bytes(), []byte("\n")), bytes.Count(want, []byte("\n")), got.Bytes())
			}
		})
	}

	// The parity arm on a committed corpus instance: independence atoms
	// the chase cannot close, whose only parity countermodel (8 tuples) is
	// beyond the enumerator's window, settle in the first tick, and the
	// certificate checks with no engine in the loop.
	t.Run("tdinfer-parity", func(t *testing.T) {
		certFile := filepath.Join(t.TempDir(), "parity.cert.json")
		out := run("tdinfer", 0,
			"-schema", "A,B,C,D", "-deps", filepath.Join("testdata", "oracle-1553.td"),
			"-goal", "R(a0, b0, c0, d0) & R(a1, b1, c1, d1) -> R(a0, b0, c0, d1)",
			"-cert", certFile)
		for _, want := range []string{"winner: parity arm (1 scheduler ticks", "verdict: finite-counterexample",
			"finite counterexample (8 tuples)", "certificate: kind=finite-model"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q:\n%s", want, out)
			}
		}
		if ver := run("tdcheck", 0, "-verify", certFile); !strings.Contains(ver, "certificate OK") {
			t.Errorf("tdcheck -verify output:\n%s", ver)
		}
	})

	t.Run("tdreduce", func(t *testing.T) {
		out := run("tdreduce", 0, "-preset", "power")
		for _, want := range []string{"D1[0:", "D4[", "D0:", "max antecedents = 5"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q:\n%s", want, out)
			}
		}
		dot := run("tdreduce", 0, "-preset", "twostep", "-dot")
		if !strings.Contains(dot, "graph") || !strings.Contains(dot, "doublecircle") {
			t.Errorf("dot output:\n%s", dot[:200])
		}
	})

	t.Run("sgword", func(t *testing.T) {
		out := run("sgword", 0, "analyze", "-preset", "power")
		if !strings.Contains(out, "finite-counterexample") {
			t.Errorf("output:\n%s", out)
		}
		out = run("sgword", 0, "derive", "-preset", "chain:2")
		if !strings.Contains(out, "derivable") {
			t.Errorf("output:\n%s", out)
		}
		out = run("sgword", 0, "complete", "-preset", "twostep")
		if !strings.Contains(out, "confluent: true") || !strings.Contains(out, "goal decided: true") {
			t.Errorf("output:\n%s", out)
		}
		out = run("sgword", 0, "model", "-preset", "power")
		if !strings.Contains(out, "model-found") {
			t.Errorf("output:\n%s", out)
		}
	})

	t.Run("sgword-analyze-twostep", func(t *testing.T) {
		// A derivation win never builds the reduction's (D, D0); the CLI
		// builds it to print its shape, and prints what it printed when
		// the portfolio built it up front (the golden was recorded then).
		want, err := os.ReadFile(filepath.Join("testdata", "cli", "sgword-analyze-twostep.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if out := run("sgword", 0, "analyze", "-preset", "twostep"); out != string(want) {
			t.Errorf("output differs from testdata/cli/sgword-analyze-twostep.txt:\n%s", out)
		}
	})

	t.Run("sgword-gap", func(t *testing.T) {
		// The gap preset sits in neither of the Main Theorem's sets: the
		// portfolio refutes the word problem but finds no finite
		// cancellation witness, and every arm retires, so the run reports
		// unknown honestly instead of grinding forever.
		out := run("sgword", 0, "analyze", "-preset", "gap", "-progress")
		if !strings.Contains(out, "verdict: unknown") || !strings.Contains(out, "word problem refuted") {
			t.Errorf("output:\n%s", out)
		}
		if strings.Contains(out, "stopped by budget") {
			t.Errorf("a budget stopped the run; every arm should retire on its own:\n%s", out)
		}
		// -progress writes the live line to stderr; CombinedOutput captures
		// it, so the derivation arm's lease must appear somewhere.
		if !strings.Contains(out, "arm derivation") {
			t.Errorf("missing progress line:\n%s", out)
		}
	})

	t.Run("sgword-cert", func(t *testing.T) {
		cert := run("sgword", 0, "derive", "-preset", "twostep", "-cert")
		if !strings.HasPrefix(cert, "cert v1") {
			t.Fatalf("cert output:\n%s", cert)
		}
		f := filepath.Join(t.TempDir(), "cert.txt")
		os.WriteFile(f, []byte(cert), 0o644)
		out := run("sgword", 0, "derive", "-preset", "twostep", "-check-cert", f)
		if !strings.Contains(out, "certificate valid") {
			t.Errorf("output:\n%s", out)
		}
		// A certificate for one presentation must not validate against
		// another.
		bad := run("sgword", 1, "derive", "-preset", "power", "-check-cert", f)
		if !strings.Contains(bad, "sgword:") {
			t.Errorf("cross-presentation cert accepted:\n%s", bad)
		}
	})

	t.Run("tdcheck", func(t *testing.T) {
		dir := t.TempDir()
		db := filepath.Join(dir, "db.txt")
		deps := filepath.Join(dir, "deps.td")
		os.WriteFile(db, []byte("R(StLaurent, EveningDress, 10)\nR(StLaurent, Brief, 36)\n"), 0o644)
		os.WriteFile(deps, []byte("fig1: R(a,b,c) & R(a,b',c') -> R(a*,b,c')\n"), 0o644)
		out := run("tdcheck", 1,
			"-schema", "SUPPLIER,STYLE,SIZE", "-db", db, "-deps", deps, "-repair")
		for _, want := range []string{"VIOLATED", "repair: 2 tuples to add", "_supplier"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q:\n%s", want, out)
			}
		}
	})

	// The certificate product surface end to end: tdinfer writes the
	// verdict's proof object, tdcheck re-verifies it with no engine in the
	// loop, and a tampered byte is rejected with a precise error.
	t.Run("tdinfer-cert-to-tdcheck-verify", func(t *testing.T) {
		dir := t.TempDir()
		chainCert := filepath.Join(dir, "chain.cert.json")
		out := run("tdinfer", 0, "-preset", "chain:2", "-cert", chainCert)
		if !strings.Contains(out, "verdict: implied") || !strings.Contains(out, "certificate: kind=chase") {
			t.Fatalf("tdinfer -cert output:\n%s", out)
		}
		ver := run("tdcheck", 0, "-verify", chainCert)
		if !strings.Contains(ver, "certificate OK") || !strings.Contains(ver, "chase trace:") {
			t.Errorf("tdcheck -verify output:\n%s", ver)
		}
		// The finite-counterexample side, with the -proof epilogue.
		powerCert := filepath.Join(dir, "power.cert.json")
		out = run("tdinfer", 0, "-preset", "power", "-proof", "-cert", powerCert)
		for _, want := range []string{"verdict: finite-counterexample", "counter-database:", "witness semigroup", "multiplication table"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in -proof output:\n%s", want, out)
			}
		}
		ver = run("tdcheck", 0, "-verify", powerCert)
		if !strings.Contains(ver, `verdict "finite-counterexample" is certified`) {
			t.Errorf("tdcheck -verify power output:\n%s", ver)
		}
		// A single tampered byte must be rejected.
		data, err := os.ReadFile(chainCert)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "bad.cert.json")
		os.WriteFile(bad, bytes.Replace(data, []byte(`"version": 1`), []byte(`"version": 7`), 1), 0o644)
		rej := run("tdcheck", 1, "-verify", bad)
		if !strings.Contains(rej, "REJECTED") {
			t.Errorf("tampered cert accepted:\n%s", rej)
		}
	})

	t.Run("tdreduce-to-tdinfer-pipeline", func(t *testing.T) {
		// The Main Theorem's direction (A), end to end across process
		// boundaries: tdreduce emits (D, D0) for a derivable presentation;
		// tdinfer independently proves the implication by chasing.
		dir := t.TempDir()
		run("tdreduce", 0, "-preset", "twostep", "-emit-dir", dir)
		schema, err := os.ReadFile(filepath.Join(dir, "schema.txt"))
		if err != nil {
			t.Fatal(err)
		}
		goal, err := os.ReadFile(filepath.Join(dir, "goal.td"))
		if err != nil {
			t.Fatal(err)
		}
		out := run("tdinfer", 0,
			"-schema", strings.TrimSpace(string(schema)),
			"-deps", filepath.Join(dir, "deps.td"),
			"-goal", strings.TrimSpace(string(goal)),
			"-rounds", "16")
		if !strings.Contains(out, "verdict: implied") {
			t.Errorf("pipeline output:\n%s", out)
		}
	})

	t.Run("tddiagram", func(t *testing.T) {
		out := run("tddiagram", 0, "-fig1")
		if !strings.Contains(out, "1 --[SUPPLIER]-- 2") {
			t.Errorf("output:\n%s", out)
		}
	})

	t.Run("tmrun", func(t *testing.T) {
		out := run("tmrun", 0, "-machine", "write-one", "-analyze")
		if !strings.Contains(out, "halted=true") || !strings.Contains(out, "derivable") {
			t.Errorf("output:\n%s", out)
		}
	})

	// The portfolio report validator is an acceptance gate: each known-bad
	// report must fail it, naming the preset, while full and quick reports
	// with the grid's verdicts and winners, and the committed report, pass.
	t.Run("tdbench-checkportfolio", func(t *testing.T) {
		preset := func(name string, ns float64, verdict, winner string) map[string]any {
			return map[string]any{"name": name, "ns_per_op": ns, "verdict": verdict,
				"winner": winner, "ticks": 1, "decisions": 4}
		}
		// report returns a full report that passes the gate; each case
		// breaks one thing.
		report := func() map[string]any {
			return map[string]any{
				"quick": false,
				"workloads": []any{
					preset("power", 4e5, "finite-counterexample", "model-search"),
					preset("twostep", 6e5, "implied", "derivation"),
					preset("chain:2", 2e6, "implied", "derivation"),
					preset("collapse:4", 8e7, "implied", "kb"),
				},
			}
		}
		workload := func(rep map[string]any, i int) map[string]any {
			return rep["workloads"].([]any)[i].(map[string]any)
		}
		dir := t.TempDir()
		for _, tc := range []struct {
			name, want string
			exit       int
			edit       func(rep map[string]any)
		}{
			{"full", "each with its expected verdict and winning arm", 0, func(map[string]any) {}},
			{"quick", "quick: timings are single runs", 0, func(rep map[string]any) { rep["quick"] = true }},
			{"wrong-verdict", "preset twostep: finite-counterexample won by derivation", 1, func(rep map[string]any) {
				workload(rep, 1)["verdict"] = "finite-counterexample"
			}},
			{"wrong-winner", "preset collapse:4: implied won by chase", 1, func(rep map[string]any) {
				workload(rep, 3)["winner"] = "chase"
			}},
			{"unknown", "preset chain:2: unknown won by none", 1, func(rep map[string]any) {
				workload(rep, 2)["verdict"] = "unknown"
				delete(workload(rep, 2), "winner")
			}},
			{"untimed", "preset power not timed", 1, func(rep map[string]any) {
				delete(workload(rep, 0), "ns_per_op")
			}},
			{"missing", "preset collapse:4 missing", 1, func(rep map[string]any) {
				rep["workloads"] = rep["workloads"].([]any)[:3]
			}},
		} {
			rep := report()
			tc.edit(rep)
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if out := run("tdbench", tc.exit, "-checkportfolio", path); !strings.Contains(out, tc.want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out)
			}
		}
		run("tdbench", 0, "-checkportfolio", "BENCH_portfolio.json")
	})

	// find returns the element of rep[list] whose field equals value; drop
	// removes it.
	find := func(t *testing.T, rep map[string]any, list, field, value string) map[string]any {
		t.Helper()
		for _, e := range rep[list].([]any) {
			if e := e.(map[string]any); e[field] == value {
				return e
			}
		}
		t.Fatalf("committed report has no %s with %s %q", list, field, value)
		return nil
	}
	drop := func(rep map[string]any, list, field, value string) {
		var kept []any
		for _, e := range rep[list].([]any) {
			if e.(map[string]any)[field] != value {
				kept = append(kept, e)
			}
		}
		rep[list] = kept
	}
	num := func(v any) int { return int(v.(float64)) }
	// knownBad runs a report validator on edits of a committed report:
	// each edit must fail it naming the reason, and the committed report
	// itself must pass.
	type badEdit struct {
		name, want string
		edit       func(rep map[string]any)
	}
	knownBad := func(t *testing.T, flag, committedPath string, cases []badEdit) {
		committed, err := os.ReadFile(committedPath)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		for _, tc := range cases {
			var rep map[string]any
			if err := json.Unmarshal(committed, &rep); err != nil {
				t.Fatal(err)
			}
			tc.edit(rep)
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if out := run("tdbench", 1, flag, path); !strings.Contains(out, tc.want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, out)
			}
		}
		run("tdbench", 0, flag, committedPath)
	}

	// The differential-fuzz report validator is the fuzz stage's gate.
	t.Run("tdbench-checkfuzz", func(t *testing.T) {
		family := func(rep map[string]any, name string) map[string]any {
			return find(t, rep, "families", "family", name)
		}
		knownBad(t, "-checkfuzz", "BENCH_fuzz.json", []badEdit{
			{"missing-family", `missing corpus family "tm"`, func(rep map[string]any) {
				tm := num(family(rep, "tm")["cases"])
				drop(rep, "families", "family", "tm")
				rep["instances"] = num(rep["instances"]) - tm
			}},
			{"verdict-sum", "family random: verdict counts sum to", func(rep map[string]any) {
				f := family(rep, "random")
				f["implied"] = num(f["implied"]) + 1
			}},
			{"oracle-mismatch", "contradict the fragment oracle", func(rep map[string]any) {
				family(rep, "oracle")["oracle_mismatches"] = 1
			}},
			{"oracle-unknown", "oracle family: 1 cases stayed unknown", func(rep map[string]any) {
				f := family(rep, "oracle")
				f["implied"] = num(f["implied"]) - 1
				f["unknown"] = 1
			}},
			{"disagreement", "1 cross-engine invariant violations", func(rep map[string]any) {
				rep["disagreement_count"] = 1
				rep["disagreements"] = []any{"random-0001: verdict: engine chase says \"implied\""}
			}},
			{"uncertified", "definitive consensus verdicts shipped a checked certificate", func(rep map[string]any) {
				rep["certified"] = num(rep["certified"]) - 1
			}},
			{"cases-counter", "counter fuzz.cases = ", func(rep map[string]any) {
				rep["counters"].(map[string]any)["fuzz.cases"] = num(rep["instances"]) - 1
			}},
			{"unknown-field", `unknown field "bogus"`, func(rep map[string]any) { rep["bogus"] = 1 }},
		})
	})

	// The chase bench validator (ci.sh's bench stage).
	t.Run("tdbench-checkbench", func(t *testing.T) {
		result := func(rep map[string]any, name string) map[string]any {
			return find(t, rep, "results", "name", name)
		}
		knownBad(t, "-checkbench", "BENCH_chase.json", []badEdit{
			{"missing-plain", "missing workload f1/roundtrip", func(rep map[string]any) {
				drop(rep, "results", "name", "f1/roundtrip")
			}},
			{"missing-serial", "workload chase/decide_full: missing /serial arm", func(rep map[string]any) {
				drop(rep, "results", "name", "chase/decide_full/serial")
			}},
			{"missing-verdict", "workload chase/decide_full: missing verdict", func(rep map[string]any) {
				delete(result(rep, "chase/decide_full/serial"), "verdict")
			}},
			{"non-positive-ns", "workload f2/bridge_len4: non-positive ns_per_op", func(rep map[string]any) {
				result(rep, "f2/bridge_len4")["ns_per_op"] = 0
			}},
		})
	})

	// The search ablation validator (ci.sh's bench stage).
	t.Run("tdbench-checksearch", func(t *testing.T) {
		workload := func(rep map[string]any, name string) map[string]any {
			return find(t, rep, "workloads", "name", name)
		}
		knownBad(t, "-checksearch", "BENCH_search.json", []badEdit{
			{"missing-arm", "workload modelsearch/gap missing ablation arm serial/none", func(rep map[string]any) {
				drop(workload(rep, "modelsearch/gap"), "arms", "prune", "none")
			}},
			{"pruned-more-nodes", "workload finitedb/gap: the pruned arm visits", func(rep map[string]any) {
				w := workload(rep, "finitedb/gap")
				unpruned := num(find(t, w, "arms", "prune", "none")["nodes"])
				find(t, w, "arms", "prune", "symmetry")["nodes"] = unpruned + 1
			}},
			{"verdicts-differ", "workload finitedb/power: verdict changed across ablation arms", func(rep map[string]any) {
				workload(rep, "finitedb/power")["verdicts_identical"] = false
			}},
			{"summary-differs", "summary reports non-identical verdicts", func(rep map[string]any) {
				rep["summary"].(map[string]any)["all_verdicts_identical"] = false
			}},
			{"no-workloads", "no workloads", func(rep map[string]any) { rep["workloads"] = []any{} }},
		})
	})

	// The sharded-serving validator (ci.sh's shard stage).
	t.Run("tdbench-checkserve", func(t *testing.T) {
		restart := func(rep map[string]any) map[string]any { return rep["restart"].(map[string]any) }
		knownBad(t, "-checkserve", "BENCH_serve.json", []badEdit{
			{"replicas", "replicas = 2, want 3", func(rep map[string]any) { rep["replicas"] = 2 }},
			{"burst-sum", "burst sources sum to", func(rep map[string]any) {
				b := rep["burst"].(map[string]any)
				b["cold"] = num(b["cold"]) + 1
			}},
			{"no-peer-ok", "no peer fill was adopted anywhere in the ring", func(rep map[string]any) {
				rep["peer_ok_total"] = 0
				for _, sh := range rep["per_shard"].([]any) {
					sh.(map[string]any)["peer_ok"] = 0
				}
			}},
			{"restart-store-hits", "restart served 6 of 7 repeats from the store", func(rep map[string]any) {
				restart(rep)["store_hits"] = num(restart(rep)["repeated_keys"]) - 1
			}},
			{"restart-recomputes", "restart re-ran 1 engines", func(rep map[string]any) {
				restart(rep)["recomputes"] = 1
			}},
			{"unknown-field", `unknown field "bogus"`, func(rep map[string]any) { rep["bogus"] = 1 }},
		})
	})

	// The service lifecycle across a real process boundary: start tdserve
	// on an ephemeral port, get a cold verdict and a renamed cache hit over
	// HTTP, SIGTERM it, and require a clean drain whose trace ends with the
	// single serve_shutdown event and replays to the printed counters.
	t.Run("tdserve", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "serve.jsonl")
		cmd := exec.Command(filepath.Join(bin, "tdserve"),
			"-addr", "127.0.0.1:0", "-request-timeout", "5s", "-trace", trace)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()

		sc := bufio.NewScanner(stdout)
		var lines []string
		readLine := func() string {
			if !sc.Scan() {
				t.Fatalf("tdserve stdout closed early; got:\n%s", strings.Join(lines, "\n"))
			}
			lines = append(lines, sc.Text())
			return sc.Text()
		}
		addr, ok := strings.CutPrefix(readLine(), "tdserve: listening on ")
		if !ok {
			t.Fatalf("unexpected first line:\n%s", strings.Join(lines, "\n"))
		}

		post := func(path, body string) map[string]any {
			t.Helper()
			res, err := http.Post("http://"+addr+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("status %d", res.StatusCode)
			}
			var m map[string]any
			if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			return m
		}
		// ?cert=1 returns the verdict's certificate inline.
		cold := post("/infer?cert=1", `{"preset":"power"}`)
		if cold["source"] != "cold" || cold["verdict"] != "finite-counterexample" {
			t.Errorf("cold response: %v", cold)
		}
		if c, ok := cold["cert"].(map[string]any); !ok || c["kind"] != "finite-model" {
			t.Errorf("cold response carries no finite-model certificate: %v", cold["cert"])
		}
		// The power presentation under renamed symbols, zero equations left
		// implicit: canonicalization must route it to the same cache line.
		// Without ?cert=1 the certificate is stripped from the wire.
		hit := post("/infer", `{"alphabet":["A0","Q","Z"],"a0":"A0","zero":"Z","equations":["A0 A0 = Q"]}`)
		if hit["source"] != "cache" || hit["key"] != cold["key"] || hit["verdict"] != cold["verdict"] {
			t.Errorf("renamed twin response: %v (cold was %v)", hit, cold)
		}
		if hit["cert"] != nil {
			t.Errorf("certificate served without opt-in: %v", hit["cert"])
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("tdserve exit: %v; output:\n%s", err, strings.Join(lines, "\n"))
		}
		out := strings.Join(lines, "\n")
		if !strings.Contains(out, "tdserve: drained. requests=2 cold=1 cache_hits=1 dedups=0") {
			t.Errorf("drain summary:\n%s", out)
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := obs.Replay(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("serve trace does not replay: %v\n%s", err, data)
		}
		if tot.ServeRequests != 2 || tot.ServeMisses != 1 || tot.ServeCacheHits != 1 || tot.ServeShutdowns != 1 {
			t.Errorf("replay totals %+v from trace:\n%s", tot, data)
		}
		tl := strings.TrimSpace(string(data))
		if last := tl[strings.LastIndexByte(tl, '\n')+1:]; !strings.Contains(last, `"type":"serve_shutdown"`) {
			t.Errorf("trace does not end with serve_shutdown: %s", last)
		}
	})
}
