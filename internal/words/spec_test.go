package words

import (
	"strings"
	"testing"
)

func TestParseSpecBasic(t *testing.T) {
	p, err := ParseSpec(`
# the two-step instance
symbols: A0 b c 0
b c = A0
b c = 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alphabet.Size() != 4 {
		t.Errorf("alphabet %v", p.Alphabet)
	}
	if err := p.CheckZeroEquations(); err != nil {
		t.Error(err)
	}
	if got := DeriveGoal(p, ClosureOptions{}).Verdict; got != Derivable {
		t.Errorf("verdict %v", got)
	}
}

func TestParseSpecCustomDistinguished(t *testing.T) {
	p, err := ParseSpec(`
symbols: start z
a0: start
zero: z
start start = z
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alphabet.Name(p.Alphabet.A0()) != "start" || p.Alphabet.Name(p.Alphabet.Zero()) != "z" {
		t.Error("distinguished symbols wrong")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"b c = A0",                     // no symbols line
		"symbols: A0 0\nnonsense line", // unparseable line
		"symbols: A0\n",                // missing zero symbol
		"symbols: A0 0\nA0 X = 0",      // unknown symbol in equation
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFormatSpecRoundTrip(t *testing.T) {
	p := TwoStepPresentation()
	spec := FormatSpec(p, true)
	if strings.Contains(spec, "A0 0 = 0") {
		t.Error("zero equations should be omitted")
	}
	q, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("reparse:\n%s\n%v", spec, err)
	}
	if len(q.Equations) != len(p.Equations) {
		t.Errorf("equations %d vs %d", len(q.Equations), len(p.Equations))
	}
	// Full spec (zero equations included) also round-trips.
	full := FormatSpec(p, false)
	q2, err := ParseSpec(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Equations) != len(p.Equations) {
		t.Errorf("full round trip %d vs %d", len(q2.Equations), len(p.Equations))
	}
}
