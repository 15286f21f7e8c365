package stixpattern

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Pattern is a parsed STIX pattern: one observation expression, possibly
// qualified.
type Pattern struct {
	Root ObservationExpr
	// Source is the original pattern text.
	Source string
}

// String renders the canonical form of the pattern.
func (p *Pattern) String() string { return p.Root.String() }

// ObservationExpr is a node in the observation-expression tree.
type ObservationExpr interface {
	fmt.Stringer
	isObservationExpr()
}

// Observation carries the field values of one observed data instance, keyed
// by object path (e.g. "domain-name:value" → ["evil.example"]). A path may
// have several values (e.g. multiple resolved IPs).
type Observation struct {
	// At is when the observation occurred; used by WITHIN/START-STOP
	// qualifiers.
	At time.Time
	// Fields maps object paths to their observed values.
	Fields map[string][]string
}

// ObsTest is a bracketed observation expression: a boolean comparison tree
// evaluated against a single observation.
type ObsTest struct {
	Expr CompareExpr
}

func (ObsTest) isObservationExpr() {}

// String renders the bracketed test.
func (o ObsTest) String() string { return "[" + o.Expr.String() + "]" }

// ObsCombine combines two observation expressions with AND, OR or
// FOLLOWEDBY.
type ObsCombine struct {
	Op          string // "AND", "OR", "FOLLOWEDBY"
	Left, Right ObservationExpr
}

func (ObsCombine) isObservationExpr() {}

// String renders the combination with explicit parentheses.
func (o ObsCombine) String() string {
	return "(" + o.Left.String() + " " + o.Op + " " + o.Right.String() + ")"
}

// Qualifier restricts when/how often an observation expression must match.
type Qualifier struct {
	Kind    string // "WITHIN", "REPEATS", "START-STOP"
	Seconds float64
	Times   int
	Start   time.Time
	Stop    time.Time
}

// String renders the qualifier in pattern syntax.
func (q Qualifier) String() string {
	switch q.Kind {
	case "WITHIN":
		return fmt.Sprintf("WITHIN %s SECONDS", trimFloat(q.Seconds))
	case "REPEATS":
		return fmt.Sprintf("REPEATS %d TIMES", q.Times)
	case "START-STOP":
		return fmt.Sprintf("START t'%s' STOP t'%s'",
			q.Start.UTC().Format("2006-01-02T15:04:05.000Z"),
			q.Stop.UTC().Format("2006-01-02T15:04:05.000Z"))
	default:
		return q.Kind
	}
}

// ObsQualified attaches a qualifier to an observation expression.
type ObsQualified struct {
	Expr      ObservationExpr
	Qualifier Qualifier
}

func (ObsQualified) isObservationExpr() {}

// String renders the qualified expression.
func (o ObsQualified) String() string {
	return o.Expr.String() + " " + o.Qualifier.String()
}

// CompareExpr is a node in the boolean tree inside one bracket pair.
type CompareExpr interface {
	fmt.Stringer
	isCompareExpr()
}

// BoolCombine joins two comparison expressions with AND or OR.
type BoolCombine struct {
	Op          string // "AND" or "OR"
	Left, Right CompareExpr
}

func (BoolCombine) isCompareExpr() {}

// String renders the boolean combination with explicit parentheses.
func (b BoolCombine) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// Comparison operators.
const (
	OpEq         = "="
	OpNeq        = "!="
	OpLt         = "<"
	OpGt         = ">"
	OpLe         = "<="
	OpGe         = ">="
	OpIn         = "IN"
	OpLike       = "LIKE"
	OpMatches    = "MATCHES"
	OpIsSubset   = "ISSUBSET"
	OpIsSuperset = "ISSUPERSET"
)

// Comparison is a single test of an object path against literal value(s).
type Comparison struct {
	Path    string
	Op      string
	Negated bool
	// Values holds one literal, or several for IN.
	Values []Literal
	// matcher is the LIKE/MATCHES regexp and network the ISSUBSET
	// literal's network, compiled once at parse time. Hand-built
	// Comparisons leave them nil and fall back to per-evaluation
	// compilation in the evaluator, as does an ISSUBSET literal that is
	// no network: it keeps failing each evaluation with its parse error.
	matcher *regexp.Regexp
	network *cidr
}

// compileMatcher precompiles the LIKE/MATCHES regexp and the ISSUBSET
// network so evaluation never re-derives them. A no-op for other
// operators or empty value lists.
func (c *Comparison) compileMatcher() error {
	if len(c.Values) == 0 {
		return nil
	}
	var src string
	switch c.Op {
	case OpLike:
		src = likeRegexpSource(c.Values[0].text())
	case OpMatches:
		src = c.Values[0].text()
	case OpIsSubset:
		if n, err := parseCIDRish(c.Values[0].text()); err == nil {
			c.network = &n
		}
		return nil
	default:
		return nil
	}
	re, err := regexp.Compile(src)
	if err != nil {
		return fmt.Errorf("bad %s regexp %q: %v", c.Op, c.Values[0].text(), err)
	}
	c.matcher = re
	return nil
}

func (Comparison) isCompareExpr() {}

// String renders the comparison in pattern syntax.
func (c Comparison) String() string {
	var sb strings.Builder
	sb.WriteString(c.Path)
	sb.WriteByte(' ')
	if c.Negated {
		sb.WriteString("NOT ")
	}
	sb.WriteString(c.Op)
	sb.WriteByte(' ')
	if c.Op == OpIn {
		sb.WriteByte('(')
		for i, v := range c.Values {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte(')')
	} else {
		sb.WriteString(c.Values[0].String())
	}
	return sb.String()
}

// LiteralKind distinguishes literal value categories.
type LiteralKind int

// Literal kinds.
const (
	LitString LiteralKind = iota + 1
	LitNumber
	LitTimestamp
)

// Literal is a constant value in a comparison.
type Literal struct {
	Kind LiteralKind
	Str  string
	Num  float64
	Time time.Time
}

// StringLit builds a string literal.
func StringLit(s string) Literal { return Literal{Kind: LitString, Str: s} }

// NumberLit builds a numeric literal.
func NumberLit(n float64) Literal { return Literal{Kind: LitNumber, Num: n} }

// String renders the literal in pattern syntax.
func (l Literal) String() string {
	switch l.Kind {
	case LitString:
		return "'" + strings.ReplaceAll(strings.ReplaceAll(l.Str, `\`, `\\`), "'", `\'`) + "'"
	case LitNumber:
		return trimFloat(l.Num)
	case LitTimestamp:
		return "t'" + l.Time.UTC().Format("2006-01-02T15:04:05.000Z") + "'"
	default:
		return "?"
	}
}

// text returns the literal's comparable string form.
func (l Literal) text() string {
	switch l.Kind {
	case LitString:
		return l.Str
	case LitNumber:
		return trimFloat(l.Num)
	case LitTimestamp:
		return l.Time.UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
