package heuristic

import (
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// TestUnscored: the heuristic component scores a stored cIoC that lacks
// the eIoC tag, and nothing else.
func TestUnscored(t *testing.T) {
	for _, tc := range []struct {
		tags []string
		want bool
	}{
		{[]string{"caisp:cioc"}, true},
		{[]string{"caisp:cioc", `caisp:cluster-content="abc"`}, true},
		{[]string{"caisp:cioc", "caisp:eioc"}, false},
		{[]string{"caisp:eioc"}, false},
		{[]string{"caisp:infrastructure"}, false},
		{nil, false},
	} {
		me := misp.NewEvent("t", time.Unix(0, 0).UTC())
		for _, tag := range tc.tags {
			me.AddTag(tag)
		}
		if got := Unscored(me); got != tc.want {
			t.Errorf("Unscored(%v) = %v, want %v", tc.tags, got, tc.want)
		}
	}
}
