package expr

import (
	"fmt"
	"strconv"
	"unicode/utf8"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokIdent
	tokLParen
	tokRParen
	tokComma
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokLT
	tokLE
	tokGT
	tokGE
	tokEQ
	tokNE
	tokAnd
	tokOr
	tokNot
	tokQuestion
	tokColon
)

var tokenNames = map[tokenKind]string{
	tokEOF:      "end of expression",
	tokNumber:   "number",
	tokIdent:    "identifier",
	tokLParen:   "'('",
	tokRParen:   "')'",
	tokComma:    "','",
	tokPlus:     "'+'",
	tokMinus:    "'-'",
	tokStar:     "'*'",
	tokSlash:    "'/'",
	tokPercent:  "'%'",
	tokLT:       "'<'",
	tokLE:       "'<='",
	tokGT:       "'>'",
	tokGE:       "'>='",
	tokEQ:       "'=='",
	tokNE:       "'!='",
	tokAnd:      "'&&'",
	tokOr:       "'||'",
	tokNot:      "'!'",
	tokQuestion: "'?'",
	tokColon:    "':'",
}

func (k tokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is a lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

// SyntaxError describes a lexical or syntactic error with its position in
// the expression source.
type SyntaxError struct {
	Expr string
	Pos  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("expr: %s at offset %d in %s", e.Msg, e.Pos, QuoteSource(e.Expr, e.Pos))
}

// quoteLimit is the longest expression source QuoteSource quotes whole.
const quoteLimit = 64

// QuoteSource quotes an expression source for a message, as %q does. A
// source longer than quoteLimit bytes is cut to a window of about
// quoteLimit bytes around byte offset pos, and "..." marks each cut end,
// so a message about hostile input stays small.
func QuoteSource(src string, pos int) string {
	if len(src) <= quoteLimit {
		return strconv.Quote(src)
	}
	lo := min(max(pos-quoteLimit/2, 0), len(src)-quoteLimit)
	hi := lo + quoteLimit
	for lo > 0 && !utf8.RuneStart(src[lo]) {
		lo--
	}
	for hi < len(src) && !utf8.RuneStart(src[hi]) {
		hi++
	}
	q := strconv.Quote(src[lo:hi])
	if lo > 0 {
		q = "..." + q
	}
	if hi < len(src) {
		q += "..."
	}
	return q
}
