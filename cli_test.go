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
	// Pinned to the static race engine — the adaptive portfolio settles
	// this instance (see tdinfer-portfolio-gap below), so only the static
	// sequential run exercises the deadline path on it.
	t.Run("tdinfer-deadline", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "gap.jsonl")
		out := run("tdinfer", 0,
			"-preset", "gap", "-deadline", "100ms", "-engine", "race",
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
		if tot.Verdicts["chase"] != "unknown" || tot.Verdicts["core"] != "unknown" {
			t.Errorf("replay verdicts %v, want unknown from chase and core", tot.Verdicts)
		}
		if tot.Rounds == 0 || tot.TuplesAdded == 0 {
			t.Errorf("replay totals %+v: expected partial chase progress before the deadline", tot)
		}
	})

	// The adaptive portfolio on the same gap instance: the finite-db arm
	// gets leases alongside the diverging chase and finds the 2-tuple
	// database that satisfies D and violates D0 — an answer the static
	// sequential run above never reaches because the chase drains its
	// whole budget first. (The word-level gap property rules out finite
	// CANCELLATION-MODEL counterexamples, not arbitrary finite databases,
	// so the presentation-level verdict for gap stays unknown.)
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

	t.Run("sgword-deepen", func(t *testing.T) {
		// The gap preset sits in neither of the Main Theorem's sets, so
		// deepening must report unknown honestly within the deadline
		// instead of grinding a single huge budget.
		out := run("sgword", 0, "analyze", "-preset", "gap", "-deepen", "250ms", "-progress")
		if !strings.Contains(out, "verdict: unknown") {
			t.Errorf("output:\n%s", out)
		}
		if !strings.Contains(out, "deepening:") {
			t.Errorf("missing deepening round count:\n%s", out)
		}
		// -progress writes the live line to stderr; CombinedOutput captures
		// it, so the deepen counter must appear somewhere.
		if !strings.Contains(out, "deepen ") {
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
	// report must fail it, with the reason named, while a quick report
	// below the timing thresholds and the committed report pass.
	t.Run("tdbench-checkportfolio", func(t *testing.T) {
		side := func(ns float64, verdict, winner string) map[string]any {
			return map[string]any{"ns_per_op": ns, "verdict": verdict, "winner": winner}
		}
		// report returns a full report that passes every gate; each case
		// breaks one thing.
		report := func() map[string]any {
			return map[string]any{
				"quick": false,
				"workloads": []any{
					map[string]any{"name": "power",
						"race":      side(4e5, "finite-counterexample", "model-search"),
						"portfolio": side(3e5, "finite-counterexample", "model-search"),
						"speedup":   4.0 / 3, "consistent": true},
					map[string]any{"name": "collapse:4",
						"race":      side(4e8, "unknown", ""),
						"portfolio": side(8e7, "implied", "kb"),
						"speedup":   5.0, "consistent": true},
				},
				"summary": map[string]any{
					"winner_counts": map[string]any{"kb": 1, "model-search": 1},
					"kb_speedup":    5.0, "kb_workload": "collapse:4",
					"within_noise": 2, "all_consistent": true},
			}
		}
		workload := func(rep map[string]any, i int) map[string]any {
			return rep["workloads"].([]any)[i].(map[string]any)
		}
		summary := func(rep map[string]any) map[string]any { return rep["summary"].(map[string]any) }
		dir := t.TempDir()
		for _, tc := range []struct {
			name, want string
			exit       int
			edit       func(rep map[string]any)
		}{
			{"full", "verdicts consistent", 0, func(map[string]any) {}},
			{"contradictory", "contradictory definitive verdicts", 1, func(rep map[string]any) {
				workload(rep, 0)["portfolio"] = side(3e5, "implied", "chase")
			}},
			{"missing-side", "missing a timed side", 1, func(rep map[string]any) {
				delete(workload(rep, 1), "race")
			}},
			{"inconsistent-summary", "inconsistent verdicts", 1, func(rep map[string]any) {
				summary(rep)["all_consistent"] = false
			}},
			{"kb-speedup", "kb headline speedup", 1, func(rep map[string]any) {
				summary(rep)["kb_speedup"] = 1.9
			}},
			{"within-noise", "within noise of the race on only 1", 1, func(rep map[string]any) {
				summary(rep)["within_noise"] = 1
			}},
			{"quick-below-thresholds", "thresholds not enforced", 0, func(rep map[string]any) {
				rep["quick"] = true
				summary(rep)["kb_speedup"] = 1.2
				summary(rep)["within_noise"] = 0
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
		if !strings.Contains(out, "tdserve: drained. requests=2 cold=1 warm=0 cache_hits=1 dedups=0") {
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
