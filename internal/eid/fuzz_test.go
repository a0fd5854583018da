package eid

import (
	"testing"

	"templatedep/internal/relation"
)

// FuzzParse throws arbitrary strings at the EID parser, which reads
// tddiagram -eid's input. It must never panic, and the Format of an
// accepted input must re-parse to the same Format. The seeds in
// testdata/fuzz/FuzzParse are a TD, a two-conclusion EID, the "=>"
// separator, a missing side, a wrong arity, a variable in two columns, and
// a starred name.
func FuzzParse(f *testing.F) {
	schema := relation.MustSchema("A", "B", "C")
	f.Fuzz(func(t *testing.T, input string) {
		e, err := Parse(schema, input, "fuzz")
		if err != nil {
			return
		}
		text := e.Format()
		e2, err := Parse(schema, text, "fuzz2")
		if err != nil {
			t.Fatalf("accepted %q but rejected its own Format %q: %v", input, text, err)
		}
		if e2.Format() != text {
			t.Fatalf("Format not idempotent: %q vs %q", e2.Format(), text)
		}
	})
}
