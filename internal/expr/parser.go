package expr

import "fmt"

// Parse parses an expression string into an AST. The grammar, lowest to
// highest precedence:
//
//	cond   = or [ '?' cond ':' cond ]
//	or     = and   { '||' and }
//	and    = cmp   { '&&' cmp }
//	cmp    = add   { ('=='|'!='|'<'|'<='|'>'|'>=') add }
//	add    = mul   { ('+'|'-') mul }
//	mul    = unary { ('*'|'/'|'%') unary }
//	unary  = ('-'|'!') unary | primary
//	primary= number | ident | ident '(' [cond {',' cond}] ')' | '(' cond ')'
//
// Input that nests deeper than MaxDepth is refused.
func Parse(src string) (Node, error) {
	p := &parser{lex: lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	n, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s", p.tok.kind)
	}
	return n, nil
}

// MustParse is Parse for expressions known to be valid at compile time;
// it panics on error. Intended for tests and package-internal constants.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// MaxDepth bounds how deeply an expression nests. Each parenthesis, unary
// operator, conditional, call and binary operator is one level around
// its operands, so a chain of n binary operators is n levels deep. The
// bound keeps the parser and every recursive pass over the tree (fold,
// resolve, render) far inside the goroutine stack, whatever the input.
const MaxDepth = 1000

type parser struct {
	lex lexer
	tok token
	// open counts the nesting parse calls in progress; depth is the
	// nesting depth of what the last parse call returned.
	open, depth int
}

// enter opens one nesting parse call; the caller defers p.leave.
func (p *parser) enter() error {
	p.open++
	if p.open > MaxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) leave() { p.open-- }

// wrap records a node one level above operands at most d deep.
func (p *parser) wrap(d int) error {
	p.depth = d + 1
	if p.depth > MaxDepth {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return p.errf("expression nests deeper than %d levels", MaxDepth)
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &SyntaxError{Expr: p.lex.src, Pos: p.tok.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errf("expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

func (p *parser) parseCond() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokQuestion {
		return c, nil
	}
	d := p.depth
	if err := p.advance(); err != nil {
		return nil, err
	}
	a, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	d = max(d, p.depth)
	if err := p.expect(tokColon); err != nil {
		return nil, err
	}
	b, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, A: a, B: b}, p.wrap(max(d, p.depth))
}

// binaryOp returns the precedence level and text of a binary operator
// token, lowest level first (see Parse); ok is false for any other
// token.
func binaryOp(k tokenKind) (prec int, op string, ok bool) {
	switch k {
	case tokOr:
		return 0, "||", true
	case tokAnd:
		return 1, "&&", true
	case tokEQ:
		return 2, "==", true
	case tokNE:
		return 2, "!=", true
	case tokLT:
		return 2, "<", true
	case tokLE:
		return 2, "<=", true
	case tokGT:
		return 2, ">", true
	case tokGE:
		return 2, ">=", true
	case tokPlus:
		return 3, "+", true
	case tokMinus:
		return 3, "-", true
	case tokStar:
		return 4, "*", true
	case tokSlash:
		return 4, "/", true
	case tokPercent:
		return 4, "%", true
	}
	return 0, "", false
}

// parseBinary parses a chain of binary operators of precedence level
// minPrec or above by precedence climbing: each operator takes as its
// right operand the chain of strictly higher levels that follows it, so
// every level is left-associative and the tree is the one the grammar's
// or/and/cmp/add/mul rules describe.
func (p *parser) parseBinary(minPrec int) (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, op, ok := binaryOp(p.tok.kind)
		if !ok || prec < minPrec {
			return l, nil
		}
		d := p.depth
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
		if err := p.wrap(max(d, p.depth)); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseUnary() (Node, error) {
	var op string
	switch p.tok.kind {
	case tokMinus:
		op = "-"
	case tokNot:
		op = "!"
	default:
		return p.parsePrimary()
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &Unary{Op: op, X: x}, p.wrap(p.depth)
}

func (p *parser) parsePrimary() (Node, error) {
	switch p.tok.kind {
	case tokNumber:
		n := &Num{Value: p.tok.num}
		p.depth = 1
		return n, p.advance()
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		p.depth = 1
		if p.tok.kind != tokLParen {
			return &Var{Name: name}, nil
		}
		if err := p.advance(); err != nil { // consume '('
			return nil, err
		}
		var args []Node
		d := 0
		if p.tok.kind != tokRParen {
			for {
				a, err := p.parseCond()
				if err != nil {
					return nil, err
				}
				d = max(d, p.depth)
				args = append(args, a)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &Call{Name: name, Args: args}, p.wrap(d)
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return n, p.wrap(p.depth)
	}
	return nil, p.errf("expected operand, found %s", p.tok.kind)
}
