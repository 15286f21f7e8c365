package subscribe

// The bench-subs suite: indexed evaluation across pattern-set sizes — the
// EXPERIMENTS.md §X11 numbers. Pattern
// populations model a SIEM detection estate: mostly point lookups
// (equality/IN, hash-dispatched) with small ordered/LIKE/CIDR tails that
// land in per-path candidate lists.

import (
	"fmt"
	"testing"

	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/stixpattern"
)

// seedPatterns registers n patterns: 88% equality, 8% IN, 2% ordered
// threat-score gates, 1% LIKE, 1% CIDR.
func seedPatterns(b *testing.B, e *Engine, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		var src string
		switch {
		case i%100 < 88:
			src = fmt.Sprintf("[domain-name:value = 'd%d.example']", i)
		case i%100 < 96:
			src = fmt.Sprintf("[ipv4-addr:value IN ('10.%d.%d.1', '10.%d.%d.2')]",
				i/251%251, i%251, i/251%251, i%251)
		case i%100 < 98:
			src = fmt.Sprintf("[x-caisp:threat-score >= 0.%d]", 1+i%9)
		case i%100 < 99:
			src = fmt.Sprintf("[url:value LIKE '%%/kit-%d/%%.bin']", i)
		default:
			src = fmt.Sprintf("[ipv4-addr:value ISSUBSET '192.%d.%d.0/24']", i/251%251, i%251)
		}
		if _, err := e.Register("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObs builds the event stream: "point" events carry one domain (the
// hash-dispatch fast path, ~10% drawn from the registered value space);
// "mixed" events additionally carry an IP and a threat score, pulling in
// the per-path ordered/CIDR candidate tails.
func benchObs(n int, mixed bool) []stixpattern.Observation {
	out := make([]stixpattern.Observation, 256)
	for i := range out {
		fields := map[string][]string{}
		if i%10 == 0 {
			fields["domain-name:value"] = []string{fmt.Sprintf("d%d.example", (i*37)%max(n, 1))}
		} else {
			fields["domain-name:value"] = []string{fmt.Sprintf("miss%d.example", i)}
		}
		if mixed {
			fields["ipv4-addr:value"] = []string{fmt.Sprintf("10.%d.%d.1", i%251, (i*13)%251)}
			fields["x-caisp:threat-score"] = []string{fmt.Sprintf("0.%d", i%10)}
		}
		out[i] = obsOf(fields)
	}
	return out
}

func benchEvaluate(b *testing.B, n int, mixed bool) {
	e := NewEngine(WithMetrics(obs.NewRegistry()), withMaxPerClient(n+1))
	defer e.Close()
	seedPatterns(b, e, n)
	stream := benchObs(n, mixed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(stream[i%len(stream)])
	}
	b.StopTimer()
	if snap := e.EvalSnapshot(); snap.Candidates != nil && snap.Candidates.Count > 0 {
		b.ReportMetric(snap.Candidates.Sum/float64(snap.Candidates.Count), "cands/op")
		b.ReportMetric(float64(snap.Matches)/float64(snap.Evaluated), "matches/op")
	}
}

func BenchmarkSubsIndexed(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("point-%d", n), func(b *testing.B) { benchEvaluate(b, n, false) })
	}
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("mixed-%d", n), func(b *testing.B) { benchEvaluate(b, n, true) })
	}
}

// BenchmarkSubsRegister measures registration cost (parse + decompose +
// index insert) with 10k patterns already standing.
func BenchmarkSubsRegister(b *testing.B) {
	e := NewEngine(withMaxPerClient(1 << 20))
	defer e.Close()
	seedPatterns(b, e, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := e.Register("bench", fmt.Sprintf("[domain-name:value = 'r%d.example']", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Unsubscribe(sub.ID); err != nil {
			b.Fatal(err)
		}
	}
}
