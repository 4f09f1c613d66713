package expr

import (
	"strings"
	"testing"
)

// FuzzParse hardens the lexer/parser against arbitrary input: it must
// never panic, and when it accepts an input, the rendered normal form
// must re-parse to the same normal form (printing round-trip).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"1 + 2*3",
		"FK6(N, M) / processes",
		"a ? b : c",
		"GV > 0 && P <= 16",
		"-x % (y + 1)",
		"min(1,2,3) + max(4)",
		"((((((1))))))",
		"1e309",
		"!",
		"())(",
		"\x00\xff",
		"𝛼 + 1",
		// Accepted inputs at MaxDepth whose normal form once nested deeper
		// than the input: a 1,000-term sum and a long prefix chain.
		strings.Repeat("1+", MaxDepth-1) + "1",
		strings.Repeat("-", 706) + strings.Repeat("!", 9) + "A",
		// Folds to +Inf, which has no literal: the subtree stays unfolded.
		"1e308*10",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		rendered := n.String()
		n2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("normal form %q (of %q) does not re-parse: %v", rendered, src, err)
		}
		if got := n2.String(); got != rendered {
			t.Fatalf("printing not a fixed point: %q -> %q -> %q", src, rendered, got)
		}
		// Folding must also be panic-free and re-parsable.
		folded := Fold(n).String()
		if _, err := Parse(folded); err != nil {
			t.Fatalf("folded form %q does not parse: %v", folded, err)
		}
	})
}
