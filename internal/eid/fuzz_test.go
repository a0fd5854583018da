package eid

import (
	"strings"
	"testing"

	"templatedep/internal/relation"
)

// FuzzParse throws arbitrary strings at the EID parser, which reads
// tddiagram -eid's input, over a schema whose column names the fuzzer
// draws too (comma-separated, at most 8): names that collide once
// lower-cased or stripped of digits, such as (A, a) or (K0', K1'), must
// still format to text Parse accepts. Parse must never panic, and the
// Format of an accepted input must re-parse to the same Format. The seeds
// in testdata/fuzz/FuzzParse are, over (A, B, C), a TD, a two-conclusion
// EID, the "=>" separator, a missing side, a wrong arity, a variable in
// two columns, and a starred name; and a TD over (A, a), over (K0', K1'),
// and over (0, 1, &), whose last name is a token separator.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, names, input string) {
		cols := strings.Split(names, ",")
		if len(cols) > 8 {
			return
		}
		schema, err := relation.NewSchema(cols)
		if err != nil {
			return
		}
		e, err := Parse(schema, input, "fuzz")
		if err != nil {
			return
		}
		text := e.Format()
		e2, err := Parse(schema, text, "fuzz2")
		if err != nil {
			t.Fatalf("over %q accepted %q but rejected its own Format %q: %v", names, input, text, err)
		}
		if e2.Format() != text {
			t.Fatalf("Format not idempotent: %q vs %q", e2.Format(), text)
		}
	})
}
