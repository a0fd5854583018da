package words

import (
	"strings"
	"testing"
)

func TestCertificateRoundTrip(t *testing.T) {
	for _, p := range []*Presentation{TwoStepPresentation(), ChainPresentation(3)} {
		res := DeriveGoal(p, ClosureOptions{})
		if res.Verdict != Derivable {
			t.Fatal("setup")
		}
		text := res.Derivation.MarshalText(p)
		back, err := ParseDerivation(p, text)
		if err != nil {
			t.Fatalf("reparse:\n%s\n%v", text, err)
		}
		if back.Len() != res.Derivation.Len() {
			t.Errorf("length changed: %d vs %d", back.Len(), res.Derivation.Len())
		}
		if !back.From.Equal(res.Derivation.From) || !back.To.Equal(res.Derivation.To) {
			t.Error("endpoints changed")
		}
	}
}

func TestCertificateRejectsTampering(t *testing.T) {
	p := TwoStepPresentation()
	res := DeriveGoal(p, ClosureOptions{})
	text := res.Derivation.MarshalText(p)

	// Tamper: change an equation index.
	bad := strings.Replace(text, "step: 0", "step: 3", 1)
	if bad == text {
		// The first step may not use equation 0; flip a direction instead.
		bad = strings.Replace(text, " + ", " - ", 1)
	}
	if _, err := ParseDerivation(p, bad); err == nil {
		t.Error("tampered certificate accepted")
	}

	// Structural garbage.
	for _, g := range []string{
		"",
		"cert v1\n",
		"cert v1\nfrom: A0\n",
		"cert v1\nfrom: A0\nto: 0\nstep: x 0 + A0\n",
		"cert v1\nfrom: A0\nto: 0\nstep: 0 0 ? A0\n",
		"cert v1\nfrom: A0\nto: 0\nnonsense\n",
		"from: A0\nto: 0\n", // no header
	} {
		if _, err := ParseDerivation(p, g); err == nil {
			t.Errorf("accepted garbage %q", g)
		}
	}
}

func TestCertificateComments(t *testing.T) {
	p := TwoStepPresentation()
	res := DeriveGoal(p, ClosureOptions{})
	text := "# a comment\n" + res.Derivation.MarshalText(p) + "\n# trailing\n"
	if _, err := ParseDerivation(p, text); err != nil {
		t.Error(err)
	}
}
