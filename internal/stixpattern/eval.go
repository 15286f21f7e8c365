package stixpattern

import (
	"fmt"
	"net"
	"net/netip"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Match evaluates the pattern against a time-ordered sequence of
// observations. A bracketed test matches if any single observation
// satisfies it; AND requires both operands to match (possibly on different
// observations); OR requires either; FOLLOWEDBY requires the right operand
// to match on an observation strictly later in the sequence than one
// matching the left operand. Qualifiers constrain the matching
// observations' timestamps (WITHIN, START-STOP) or multiplicity (REPEATS).
func (p *Pattern) Match(observations []Observation) (bool, error) {
	idx, err := evalObs(p.Root, observations)
	if err != nil {
		return false, err
	}
	return len(idx) > 0, nil
}

// MatchOne matches a single observation: Match on a one-observation
// sequence, without building the sets of matching observations.
func (p *Pattern) MatchOne(obs Observation) (bool, error) {
	if match, ok := matchOne(p.Root, obs); ok {
		return match, nil
	}
	return p.Match([]Observation{obs})
}

// matchOne is evalObs on the sequence [obs]; ok is false where that
// fails, for Match to report the error.
func matchOne(expr ObservationExpr, obs Observation) (match, ok bool) {
	switch e := expr.(type) {
	case ObsTest:
		m, err := evalBool(e.Expr, obs)
		return m, err == nil
	case ObsCombine:
		left, lok := matchOne(e.Left, obs)
		right, rok := matchOne(e.Right, obs)
		switch ok = lok && rok; e.Op {
		case "AND":
			return left && right, ok
		case "OR":
			return left || right, ok
		case "FOLLOWEDBY": // no observation follows the only one
			return false, ok
		}
	case ObsQualified:
		m, mok := matchOne(e.Expr, obs)
		switch q := e.Qualifier; {
		case !m || !mok:
			return false, mok
		case q.Kind == "REPEATS":
			return q.Times <= 1, true
		case q.Kind == "WITHIN":
			return q.Seconds >= 0, true
		case q.Kind == "START-STOP":
			return !obs.At.Before(q.Start) && obs.At.Before(q.Stop), true
		}
	}
	return false, false
}

// evalObs returns the sorted indexes of observations that participate in a
// match of expr, or an empty slice if expr does not match.
func evalObs(expr ObservationExpr, observations []Observation) ([]int, error) {
	switch e := expr.(type) {
	case ObsTest:
		var idx []int
		for i, obs := range observations {
			ok, err := evalBool(e.Expr, obs)
			if err != nil {
				return nil, err
			}
			if ok {
				idx = append(idx, i)
			}
		}
		return idx, nil
	case ObsCombine:
		left, err := evalObs(e.Left, observations)
		if err != nil {
			return nil, err
		}
		right, err := evalObs(e.Right, observations)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "AND":
			if len(left) > 0 && len(right) > 0 {
				return union(left, right), nil
			}
			return nil, nil
		case "OR":
			if len(left) > 0 || len(right) > 0 {
				return union(left, right), nil
			}
			return nil, nil
		case "FOLLOWEDBY":
			if len(left) == 0 || len(right) == 0 {
				return nil, nil
			}
			// The earliest left match must be strictly before some right
			// match.
			first := left[0]
			for _, r := range right {
				if r > first {
					return union(left, right), nil
				}
			}
			return nil, nil
		default:
			return nil, fmt.Errorf("stixpattern: unknown observation operator %q", e.Op)
		}
	case ObsQualified:
		idx, err := evalObs(e.Expr, observations)
		if err != nil {
			return nil, err
		}
		if len(idx) == 0 {
			return nil, nil
		}
		q := e.Qualifier
		switch q.Kind {
		case "REPEATS":
			if len(idx) >= q.Times {
				return idx, nil
			}
			return nil, nil
		case "WITHIN":
			minAt, maxAt := observations[idx[0]].At, observations[idx[0]].At
			for _, i := range idx[1:] {
				at := observations[i].At
				if at.Before(minAt) {
					minAt = at
				}
				if at.After(maxAt) {
					maxAt = at
				}
			}
			if maxAt.Sub(minAt).Seconds() <= q.Seconds {
				return idx, nil
			}
			return nil, nil
		case "START-STOP":
			var kept []int
			for _, i := range idx {
				at := observations[i].At
				if !at.Before(q.Start) && at.Before(q.Stop) {
					kept = append(kept, i)
				}
			}
			return kept, nil
		default:
			return nil, fmt.Errorf("stixpattern: unknown qualifier %q", q.Kind)
		}
	default:
		return nil, fmt.Errorf("stixpattern: unknown observation expression %T", expr)
	}
}

func evalBool(expr CompareExpr, obs Observation) (bool, error) {
	switch e := expr.(type) {
	case BoolCombine:
		left, err := evalBool(e.Left, obs)
		if err != nil {
			return false, err
		}
		// Short-circuit.
		if e.Op == "AND" && !left {
			return false, nil
		}
		if e.Op == "OR" && left {
			return true, nil
		}
		return evalBool(e.Right, obs)
	case Comparison:
		return evalComparison(e, obs)
	default:
		return false, fmt.Errorf("stixpattern: unknown comparison expression %T", expr)
	}
}

func evalComparison(cmp Comparison, obs Observation) (bool, error) {
	values, present := lookup(obs, cmp.Path)
	if !present || len(values) == 0 {
		// Absent object path: the comparison (and its negation) is false,
		// per the STIX patterning semantics for non-existent objects.
		return false, nil
	}
	for _, v := range values {
		ok, err := cmp.compareValue(v)
		if err != nil {
			return false, err
		}
		if ok != cmp.Negated { // ok && !negated, or !ok && negated
			return true, nil
		}
	}
	return false, nil
}

// lookup fetches the values for an object path. A trailing [*] or [N] index
// selector on the pattern path selects within the value list of the base
// path.
func lookup(obs Observation, path string) ([]string, bool) {
	if vals, ok := obs.Fields[path]; ok {
		return vals, true
	}
	// Try index-selector handling: base[N] or base[*].
	if i := strings.LastIndexByte(path, '['); i > 0 && strings.HasSuffix(path, "]") {
		base := path[:i]
		sel := path[i+1 : len(path)-1]
		vals, ok := obs.Fields[base]
		if !ok {
			return nil, false
		}
		if sel == "*" {
			return vals, true
		}
		n, err := strconv.Atoi(sel)
		if err != nil || n < 0 || n >= len(vals) {
			return nil, false
		}
		return vals[n : n+1], true
	}
	return nil, false
}

func (cmp Comparison) compareValue(value string) (bool, error) {
	literals := cmp.Values
	switch cmp.Op {
	case OpEq:
		return equalValue(value, literals[0]), nil
	case OpNeq:
		return !equalValue(value, literals[0]), nil
	case OpLt, OpGt, OpLe, OpGe:
		return compareOrdered(value, cmp.Op, literals[0])
	case OpIn:
		for _, lit := range literals {
			if equalValue(value, lit) {
				return true, nil
			}
		}
		return false, nil
	case OpLike:
		if cmp.matcher != nil {
			return cmp.matcher.MatchString(value), nil
		}
		return likeMatch(value, literals[0].text()), nil
	case OpMatches:
		if cmp.matcher != nil {
			return cmp.matcher.MatchString(value), nil
		}
		// Hand-built AST without a precompiled matcher: compile ad hoc.
		re, err := regexp.Compile(literals[0].text())
		if err != nil {
			return false, fmt.Errorf("stixpattern: bad MATCHES regexp: %w", err)
		}
		return re.MatchString(value), nil
	case OpIsSubset:
		if cmp.network != nil {
			return netContains(*cmp.network, value)
		}
		return cidrContains(literals[0].text(), value)
	case OpIsSuperset:
		return cidrContains(value, literals[0].text())
	default:
		return false, fmt.Errorf("stixpattern: unknown operator %q", cmp.Op)
	}
}

func equalValue(value string, lit Literal) bool {
	if lit.Kind == LitNumber {
		n, err := strconv.ParseFloat(value, 64)
		if err == nil {
			return n == lit.Num
		}
	}
	return value == lit.text()
}

func compareOrdered(value, op string, lit Literal) (bool, error) {
	var c int
	if lit.Kind == LitNumber {
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return false, nil // non-numeric observed value never orders against a number
		}
		switch {
		case n < lit.Num:
			c = -1
		case n > lit.Num:
			c = 1
		}
	} else {
		c = strings.Compare(value, lit.text())
	}
	switch op {
	case OpLt:
		return c < 0, nil
	case OpGt:
		return c > 0, nil
	case OpLe:
		return c <= 0, nil
	default: // OpGe
		return c >= 0, nil
	}
}

// likeMatch implements the STIX LIKE operator: '%' matches any run of
// characters, '_' matches exactly one. Fallback path for hand-built ASTs;
// parsed patterns carry the compiled form on the Comparison node.
func likeMatch(value, pattern string) bool {
	matched, err := regexp.MatchString(likeRegexpSource(pattern), value)
	return err == nil && matched
}

// likeRegexpSource translates a LIKE pattern into an anchored regexp.
func likeRegexpSource(pattern string) string {
	var re strings.Builder
	re.WriteString("^(?s)")
	for _, r := range pattern {
		switch r {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	re.WriteString("$")
	return re.String()
}

// cidrContains reports whether the network `outer` (CIDR or single IP)
// contains `inner` (CIDR or single IP).
func cidrContains(outer, inner string) (bool, error) {
	c, err := parseCIDRish(outer)
	if err != nil {
		return false, err
	}
	return netContains(c, inner)
}

// netContains reports whether the network outer contains `inner` (CIDR
// or single IP).
func netContains(outer cidr, inner string) (bool, error) {
	in, err := parseCIDRish(inner)
	if err != nil {
		return false, err
	}
	return outer.net.Contains(in.addr) && in.ones >= outer.ones, nil
}

// cidr is an ISSUBSET or ISSUPERSET operand: addr is the address as
// written and net the network spanned, each in the family it tests (an
// IPv4-mapped address or network of 96 bits or more is IPv4), and ones
// the prefix length as written, the full length for an address.
type cidr struct {
	addr netip.Addr
	net  netip.Prefix
	ones int
}

// parseCIDRish reads s as net.ParseCIDR does when it holds a slash and
// as net.ParseIP does otherwise, with net/netip, allocating nothing.
func parseCIDRish(s string) (cidr, error) {
	host, bits, isCIDR := strings.Cut(s, "/")
	a, err := netip.ParseAddr(host)
	if !isCIDR {
		if err != nil || a.Zone() != "" {
			return cidr{}, fmt.Errorf("stixpattern: bad IP %q", s)
		}
		a = a.Unmap()
		return cidr{addr: a, net: netip.PrefixFrom(a, a.BitLen()), ones: a.BitLen()}, nil
	}
	n, nerr := strconv.Atoi(bits) // unlike net.ParseCIDR, Atoi takes a sign
	if err != nil || a.Zone() != "" || nerr != nil || bits[0] == '+' || bits[0] == '-' || n > a.BitLen() {
		return cidr{}, fmt.Errorf("stixpattern: bad CIDR %q: %w", s, &net.ParseError{Type: "CIDR address", Text: s})
	}
	p := netip.PrefixFrom(a, n).Masked()
	if p.Addr().Is4In6() {
		p = netip.PrefixFrom(p.Addr().Unmap(), n-96)
	}
	return cidr{addr: a.Unmap(), net: p, ones: n}, nil
}

// union returns the indexes in a or b, ascending for deterministic
// qualifier evaluation.
func union(a, b []int) []int {
	out := slices.Concat(a, b)
	slices.Sort(out)
	return slices.Compact(out)
}
