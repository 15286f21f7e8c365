package heuristic

import (
	"strconv"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// Score write-back attributes. The analyzer persists the threat score
// into the stored eIoC as a comment attribute ("threat-score:0.6250",
// §IV-A); the indicator-lifecycle engine maintains the time-decayed
// counterpart ("decayed-score:…") beside it. Both are upserted in
// place so re-scoring never accumulates duplicate attributes, and
// SetDecayedScore deliberately leaves the event Timestamp alone — a
// decay edit is derived local state, not a revision, so it must not
// ripple through mesh conflict resolution or change feeds as an edit
// other nodes have to import.

// ScorePrefix marks the analyzer's base-score comment attribute.
const ScorePrefix = "threat-score:"

// DecayedScorePrefix marks the lifecycle engine's decayed-score
// comment attribute.
const DecayedScorePrefix = "decayed-score:"

// FormatScore renders a score write-back value, fixed at the 4
// decimals the analyzer has always written.
func FormatScore(prefix string, score float64) string {
	return prefix + strconv.FormatFloat(score, 'f', 4, 64)
}

func scoreOf(me *misp.Event, prefix string) (float64, bool) {
	for i := range me.Attributes {
		a := &me.Attributes[i]
		if a.Type != "comment" {
			continue
		}
		if rest, ok := strings.CutPrefix(a.Value, prefix); ok {
			if f, err := strconv.ParseFloat(rest, 64); err == nil {
				return f, true
			}
		}
	}
	return 0, false
}

// Unscored reports whether a stored revision is one the heuristic
// component scores: a cIoC without the eIoC tag. Infrastructure data is
// stored, not analyzed, and an eIoC is already scored; re-scoring a
// write-back would loop.
func Unscored(me *misp.Event) bool {
	return me.HasTag("caisp:cioc") && !me.HasTag("caisp:eioc")
}

// BaseScoreOf recovers the analyzer's written-back threat score.
func BaseScoreOf(me *misp.Event) (float64, bool) { return scoreOf(me, ScorePrefix) }

// DecayedScoreOf recovers the lifecycle engine's decayed score.
func DecayedScoreOf(me *misp.Event) (float64, bool) { return scoreOf(me, DecayedScorePrefix) }

// setScore upserts the prefix-marked comment attribute, returning
// whether the stored value actually changed.
func setScore(me *misp.Event, prefix string, score float64, at time.Time) bool {
	want := FormatScore(prefix, score)
	for i := range me.Attributes {
		a := &me.Attributes[i]
		if a.Type != "comment" || !strings.HasPrefix(a.Value, prefix) {
			continue
		}
		if a.Value == want {
			return false
		}
		a.Value = want
		a.Timestamp = misp.UT(at)
		return true
	}
	me.AddAttribute("comment", "Other", want, at)
	return true
}

// SetBaseScore upserts the analyzer's threat-score attribute.
func SetBaseScore(me *misp.Event, score float64, at time.Time) bool {
	return setScore(me, ScorePrefix, score, at)
}

// SetDecayedScore upserts the decayed-score attribute. The event
// Timestamp is not bumped (see the package comment above); callers
// re-store the event to land the edit.
func SetDecayedScore(me *misp.Event, score float64, at time.Time) bool {
	return setScore(me, DecayedScorePrefix, score, at)
}
