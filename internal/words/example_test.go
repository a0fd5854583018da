package words_test

import (
	"fmt"

	"templatedep/internal/words"
)

func ExampleDeriveGoal() {
	p := words.TwoStepPresentation() // b·c = A0 and b·c = 0
	res := words.DeriveGoal(p, words.ClosureOptions{})
	fmt.Println(res.Verdict)
	for _, w := range res.Derivation.Words() {
		fmt.Println(w.Format(p.Alphabet))
	}
	// Output:
	// derivable
	// A0
	// bc
	// 0
}

func ExampleNormalize() {
	// The paper's example: ABC = DA becomes AB = E, DA = F, EC = F.
	a := words.MustAlphabet([]string{"A0", "A", "B", "C", "D", "0"}, "A0", "0")
	p, err := words.NewPresentation(a, []words.Equation{
		words.Eq(words.MustParseWord(a, "A B C"), words.MustParseWord(a, "D A")),
	})
	if err != nil {
		panic(err)
	}
	n, err := words.Normalize(p)
	if err != nil {
		panic(err)
	}
	fmt.Println("(2,1) form:", n.Presentation.IsTwoOne())
	fmt.Println("fresh symbols:", len(n.Definitions))
	// Output:
	// (2,1) form: true
	// fresh symbols: 2
}
