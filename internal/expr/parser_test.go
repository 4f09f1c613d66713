package expr

import (
	"errors"
	"strings"
	"testing"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		src  string
		want string // normalized String() form: the fewest parentheses
		// that keep the tree, so it also pins precedence and associativity
	}{
		{"1", "1"},
		{"1.5", "1.5"},
		{"1e3", "1000"},
		{"2.5e-2", "0.025"},
		{"x", "x"},
		{"_under", "_under"},
		{"x1y2", "x1y2"},
		{"1+2", "1 + 2"},
		{"1+2*3", "1 + 2 * 3"},
		{"(1+2)*3", "(1 + 2) * 3"},
		{"-x", "-x"},
		{"--x", "--x"},
		{"!x", "!x"},
		{"a-b-c", "a - b - c"}, // left associative
		{"a-(b-c)", "a - (b - c)"},
		{"((a-b))-c", "a - b - c"},
		{"a/b/c", "a / b / c"},
		{"-(a+b)", "-(a + b)"},
		{"!(a && b)", "!(a && b)"},
		{"a%b", "a % b"},
		{"f()", "f()"},
		{"f(1)", "f(1)"},
		{"f(1, 2, 3)", "f(1, 2, 3)"},
		{"FA1(P)", "FA1(P)"},
		{"FSA2(pid)", "FSA2(pid)"},
		{"f(g(x), h(y)+1)", "f(g(x), h(y) + 1)"},
		{"a < b", "a < b"},
		{"a <= b", "a <= b"},
		{"a == b", "a == b"},
		{"a != b", "a != b"},
		{"a >= b", "a >= b"},
		{"GV > 0", "GV > 0"},
		{"a && b || c", "a && b || c"},
		{"a && (b || c)", "a && (b || c)"},
		{"!a && b", "!a && b"},
		{"a<b && c>d", "a < b && c > d"},
		{"a < (b < c)", "a < (b < c)"},
		{"a ? b : c", "a ? b : c"},
		{"a ? b : c ? d : e", "a ? b : c ? d : e"}, // right associative
		{"(a ? b : c) ? d : e", "(a ? b : c) ? d : e"},
		{"a ? (b ? c : d) : e", "a ? b ? c : d : e"},
		{"1 + (a ? b : c)", "1 + (a ? b : c)"},
		{"a+b ? c*d : e-f", "a + b ? c * d : e - f"},
		{"  1 +\t2 \n", "1 + 2"},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := n.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseNormalizedFormReparses(t *testing.T) {
	// Property: rendering and re-parsing is a fixed point.
	sources := []string{
		"1+2*3", "(1+2)*3", "a && b || !c", "f(g(x), 1/2)",
		"a ? b+1 : c*2", "-x % 3", "GV > 0 && P <= 16",
	}
	for _, src := range sources {
		n1 := MustParse(src)
		n2, err := Parse(n1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", src, n1.String(), err)
		}
		if n1.String() != n2.String() {
			t.Errorf("not a fixed point: %q -> %q -> %q", src, n1.String(), n2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"", "1 +", "(1", "1)", "f(", "f(1,", "f(1 2)", "* 3", "1 ? 2",
		"1 ? 2 : ", "a = b", "a & b", "a | b", "@", "1..2", "a +* b",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSyntaxErrorDetails(t *testing.T) {
	_, err := Parse("1 + @")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("want *SyntaxError, got %T: %v", err, err)
	}
	if se.Pos != 4 {
		t.Errorf("error Pos = %d, want 4", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset 4") {
		t.Errorf("error message should include offset: %q", se.Error())
	}
}

// A SyntaxError quotes a source of up to 64 bytes whole, and a longer
// one as a window around the error offset with "..." at each cut end.
func TestQuoteSource(t *testing.T) {
	short := strings.Repeat("a+", 31) + "bc" // 64 bytes
	if got, want := QuoteSource(short, 10), `"`+short+`"`; got != want {
		t.Errorf("QuoteSource(64 bytes) = %s, want %s", got, want)
	}
	long := strings.Repeat("x", 100) + "@" + strings.Repeat("y", 100)
	_, err := Parse(long)
	want := `expr: unexpected character '@' at offset 100 in ..."` +
		strings.Repeat("x", 32) + "@" + strings.Repeat("y", 31) + `"...`
	if err == nil || err.Error() != want {
		t.Errorf("Parse(201 bytes) error = %v, want %s", err, want)
	}
	if got, want := QuoteSource(long, 0), `"`+strings.Repeat("x", 64)+`"...`; got != want {
		t.Errorf("QuoteSource(long, 0) = %s, want %s", got, want)
	}
	if got, want := QuoteSource(long, len(long)), `..."`+strings.Repeat("y", 64)+`"`; got != want {
		t.Errorf("QuoteSource(long, end) = %s, want %s", got, want)
	}
	// A cut never splits a multi-byte rune.
	wide := strings.Repeat("é", 100)
	got := QuoteSource(wide, 51)
	if strings.Contains(got, `\x`) || !strings.HasPrefix(got, `..."é`) || !strings.HasSuffix(got, `é"...`) {
		t.Errorf("QuoteSource(two-byte runes) = %s, want whole runes", got)
	}
}

// Nesting is bounded at MaxDepth levels, counted over parentheses,
// unary operators, conditionals, call arguments and binary-operator
// chains: input one level deeper is refused with stable text, input at
// the bound parses, and input far beyond it (which would otherwise
// overflow the stack of the parser or of Fold) is refused just the same.
func TestParseDepthBound(t *testing.T) {
	const msg = "expression nests deeper than 1000 levels"
	nest := func(open, close string, n int, inner string) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	sum := func(terms int) string { return "1" + strings.Repeat("+1", terms-1) }
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		{"parens at bound", nest("(", ")", MaxDepth-1, "x"), true},
		{"parens over bound", nest("(", ")", MaxDepth, "x"), false},
		{"parens far over bound", nest("(", ")", 100000, "x"), false},
		{"unary at bound", strings.Repeat("-", MaxDepth-1) + "x", true},
		{"unary over bound", strings.Repeat("!", MaxDepth) + "x", false},
		{"sum at bound", sum(MaxDepth), true},
		{"sum over bound", sum(MaxDepth + 1), false},
		{"sum far over bound", sum(300000), false},
		{"conditionals over bound", strings.Repeat("c ? 1 : ", MaxDepth) + "0", false},
		{"call arguments over bound", nest("f(", ")", MaxDepth, "x"), false},
		{"chains inside parens over bound", nest("(", "+1+1)", 400, "x"), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := Parse(c.src)
			if c.ok {
				if err != nil {
					t.Fatalf("refused at the bound: %v", err)
				}
				Fold(n) // must not exhaust the stack
				return
			}
			var se *SyntaxError
			if !errors.As(err, &se) || se.Msg != msg {
				t.Fatalf("err = %v, want a SyntaxError %q", err, msg)
			}
			if _, err := CompileStringFolded(c.src); err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("CompileStringFolded err = %v, want %q", err, msg)
			}
		})
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on invalid input")
		}
	}()
	MustParse("1 +")
}

func TestVars(t *testing.T) {
	n := MustParse("a + f(b, a) * c ? d : a")
	got := Vars(n)
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
	if vs := Vars(MustParse("1 + 2")); len(vs) != 0 {
		t.Errorf("constant expression should have no vars, got %v", vs)
	}
}

func TestCalls(t *testing.T) {
	n := MustParse("f(g(x)) + h(1) + f(2)")
	got := Calls(n)
	want := []string{"f", "g", "h"}
	if len(got) != len(want) {
		t.Fatalf("Calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Calls = %v, want %v", got, want)
		}
	}
}
