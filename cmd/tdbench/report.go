// Shared scaffolding for the JSON report emitters (-benchjson,
// -searchjson, -portfoliojson, -shardjson, -loadjson, -fuzzjson): the
// provenance header every report carries, the write/validate plumbing, and
// the quick-vs-benchmark measurement switch. Each emitter keeps its own
// payload shape and acceptance gates; only the mechanics live here.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// reportHost is the provenance header embedded in every report: when it
// was generated, by which toolchain/platform, and on how many CPUs — the
// fuzz harness's workers and the load burst's clients share them. Older
// committed reports predate some of these fields, so validators must treat
// them as optional.
type reportHost struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newReportHost() reportHost {
	return reportHost{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// reportFail returns the standard failure closure of an emitter or
// validator: one line to stderr under the given scope (a flag name or a
// report path), then a nonzero exit.
func reportFail(scope string) func(format string, args ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tdbench: %s: %s\n", scope, fmt.Sprintf(format, args...))
		os.Exit(1)
	}
}

// reportProbe fails fast on an unwritable output path, before the emitter
// spends minutes measuring.
func reportProbe(path string, fail func(string, ...any)) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	f.Close()
}

// reportWrite renders rep as indented JSON, newline-terminated — the one
// on-disk format of every BENCH_*.json.
func reportWrite(path string, rep any, fail func(string, ...any)) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fail("%v", err)
	}
}

// reportRead parses a report into rep. strict additionally rejects
// unknown fields, so a validator catches schema drift between the
// committed report and the current struct, not just corruption.
func reportRead(path string, rep any, strict bool, fail func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	if strict {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rep); err != nil {
			fail("parse: %v", err)
		}
		return
	}
	if err := json.Unmarshal(data, rep); err != nil {
		fail("parse: %v", err)
	}
}

// measureNs times run: a full testing.Benchmark loop normally, a single
// timed run under a -*quick flag (CI smoke — structure over statistics).
func measureNs(quick bool, run func()) float64 {
	if quick {
		start := time.Now()
		run()
		return float64(time.Since(start).Nanoseconds())
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	return float64(r.T.Nanoseconds()) / float64(r.N)
}
