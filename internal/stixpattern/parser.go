package stixpattern

import (
	"strconv"
	"time"
)

// Parse compiles a STIX pattern string into its AST.
//
// Observation operator precedence (loosest to tightest): OR, AND,
// FOLLOWEDBY. Inside brackets: OR, then AND. Parentheses override.
func Parse(input string) (*Pattern, error) {
	p := &parser{lex: lexer{input: input}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	root, err := p.parseObsOr()
	if err != nil {
		return nil, err
	}
	if p.cur.kind != tokEOF {
		return nil, syntaxErrf(p.cur.pos, "trailing input starting with %q", p.cur.text)
	}
	return &Pattern{Root: root, Source: input}, nil
}

// Equality builds the single-comparison pattern [path = 'value'] as the
// AST Parse returns for its text, and renders that text into Source from
// the AST itself, so the two cannot disagree. path must be an object path
// Parse accepts as one token (for example file:hashes.'SHA-256'); value
// may hold any bytes.
func Equality(path, value string) *Pattern {
	root := ObsTest{Expr: Comparison{Path: path, Op: OpEq, Values: []Literal{StringLit(value)}}}
	return &Pattern{Root: root, Source: root.String()}
}

type parser struct {
	lex lexer
	cur token
}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.cur.kind != kind {
		return token{}, syntaxErrf(p.cur.pos, "expected %s, found %q", kind, p.cur.text)
	}
	tok := p.cur
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return tok, nil
}

func (p *parser) parseObsOr() (ObservationExpr, error) {
	left, err := p.parseObsAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseObsAnd()
		if err != nil {
			return nil, err
		}
		left = ObsCombine{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseObsAnd() (ObservationExpr, error) {
	left, err := p.parseObsFollowedBy()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseObsFollowedBy()
		if err != nil {
			return nil, err
		}
		left = ObsCombine{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseObsFollowedBy() (ObservationExpr, error) {
	left, err := p.parseObsUnit()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokFollowedBy {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseObsUnit()
		if err != nil {
			return nil, err
		}
		left = ObsCombine{Op: "FOLLOWEDBY", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseObsUnit() (ObservationExpr, error) {
	var expr ObservationExpr
	switch p.cur.kind {
	case tokLBracket:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseBoolOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, err
		}
		expr = ObsTest{Expr: inner}
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseObsOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		expr = inner
	default:
		return nil, syntaxErrf(p.cur.pos, "expected '[' or '(', found %q", p.cur.text)
	}
	// Zero or more qualifiers bind to this unit.
	for {
		q, ok, err := p.tryParseQualifier()
		if err != nil {
			return nil, err
		}
		if !ok {
			return expr, nil
		}
		expr = ObsQualified{Expr: expr, Qualifier: q}
	}
}

func (p *parser) tryParseQualifier() (Qualifier, bool, error) {
	switch p.cur.kind {
	case tokWithin:
		if err := p.advance(); err != nil {
			return Qualifier{}, false, err
		}
		num, err := p.expect(tokNumber)
		if err != nil {
			return Qualifier{}, false, err
		}
		secs, err := strconv.ParseFloat(num.text, 64)
		if err != nil || secs <= 0 {
			return Qualifier{}, false, syntaxErrf(num.pos, "WITHIN requires a positive number, found %q", num.text)
		}
		if _, err := p.expect(tokSeconds); err != nil {
			return Qualifier{}, false, err
		}
		return Qualifier{Kind: "WITHIN", Seconds: secs}, true, nil
	case tokRepeats:
		if err := p.advance(); err != nil {
			return Qualifier{}, false, err
		}
		num, err := p.expect(tokNumber)
		if err != nil {
			return Qualifier{}, false, err
		}
		times, err := strconv.Atoi(num.text)
		if err != nil || times < 1 {
			return Qualifier{}, false, syntaxErrf(num.pos, "REPEATS requires a positive integer, found %q", num.text)
		}
		if _, err := p.expect(tokTimes); err != nil {
			return Qualifier{}, false, err
		}
		return Qualifier{Kind: "REPEATS", Times: times}, true, nil
	case tokStart:
		if err := p.advance(); err != nil {
			return Qualifier{}, false, err
		}
		startTok, err := p.expect(tokTimestampT)
		if err != nil {
			return Qualifier{}, false, err
		}
		start, err := parseTimestampLit(startTok)
		if err != nil {
			return Qualifier{}, false, err
		}
		if _, err := p.expect(tokStop); err != nil {
			return Qualifier{}, false, err
		}
		stopTok, err := p.expect(tokTimestampT)
		if err != nil {
			return Qualifier{}, false, err
		}
		stop, err := parseTimestampLit(stopTok)
		if err != nil {
			return Qualifier{}, false, err
		}
		if !stop.After(start) {
			return Qualifier{}, false, syntaxErrf(stopTok.pos, "STOP must be after START")
		}
		return Qualifier{Kind: "START-STOP", Start: start, Stop: stop}, true, nil
	default:
		return Qualifier{}, false, nil
	}
}

func (p *parser) parseBoolOr() (CompareExpr, error) {
	left, err := p.parseBoolAnd()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolAnd()
		if err != nil {
			return nil, err
		}
		left = BoolCombine{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseBoolAnd() (CompareExpr, error) {
	left, err := p.parseBoolUnit()
	if err != nil {
		return nil, err
	}
	for p.cur.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseBoolUnit()
		if err != nil {
			return nil, err
		}
		left = BoolCombine{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseBoolUnit() (CompareExpr, error) {
	if p.cur.kind == tokLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseBoolOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (CompareExpr, error) {
	pathTok, err := p.expect(tokPath)
	if err != nil {
		return nil, err
	}
	var negated bool
	if p.cur.kind == tokNot {
		negated = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	var op string
	switch p.cur.kind {
	case tokEq:
		op = OpEq
	case tokNeq:
		op = OpNeq
	case tokLt:
		op = OpLt
	case tokGt:
		op = OpGt
	case tokLe:
		op = OpLe
	case tokGe:
		op = OpGe
	case tokIn:
		op = OpIn
	case tokLike:
		op = OpLike
	case tokMatches:
		op = OpMatches
	case tokIsSubset:
		op = OpIsSubset
	case tokIsSuperset:
		op = OpIsSuperset
	default:
		return nil, syntaxErrf(p.cur.pos, "expected comparison operator, found %q", p.cur.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}

	cmp := Comparison{Path: pathTok.text, Op: op, Negated: negated}
	if op == OpIn {
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			cmp.Values = append(cmp.Values, lit)
			if p.cur.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return cmp, nil
	}
	litPos := p.cur.pos
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	cmp.Values = []Literal{lit}
	// Compile LIKE/MATCHES and the ISSUBSET network once here so evaluation
	// never recompiles, and so an unparsable MATCHES regexp is a positioned
	// parse error rather than a per-evaluation failure.
	if err := cmp.compileMatcher(); err != nil {
		return nil, syntaxErrf(litPos, "%v", err)
	}
	return cmp, nil
}

func (p *parser) parseLiteral() (Literal, error) {
	switch p.cur.kind {
	case tokString:
		lit := StringLit(p.cur.text)
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		return lit, nil
	case tokNumber:
		n, err := strconv.ParseFloat(p.cur.text, 64)
		if err != nil {
			return Literal{}, syntaxErrf(p.cur.pos, "bad number %q", p.cur.text)
		}
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		return NumberLit(n), nil
	case tokTimestampT:
		ts, err := parseTimestampLit(p.cur)
		if err != nil {
			return Literal{}, err
		}
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitTimestamp, Time: ts}, nil
	default:
		return Literal{}, syntaxErrf(p.cur.pos, "expected literal, found %q", p.cur.text)
	}
}

func parseTimestampLit(tok token) (time.Time, error) {
	ts, err := time.Parse(time.RFC3339Nano, tok.text)
	if err != nil {
		return time.Time{}, syntaxErrf(tok.pos, "bad timestamp %q", tok.text)
	}
	return ts.UTC(), nil
}
