package subscribe

import (
	"context"

	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/tip"
)

// Detections is the one detections loop: a follower of a TIP's change
// log that evaluates every committed revision under one stage rule
// (evaluatePage), so caispd and tipd fire the same frames for it.
type Detections struct {
	*tip.Follower
	handle func(page []*misp.Event, next uint64) error
}

// Detections builds the loop over feed from the sequence from on, with
// retries on e's clock. fanOut runs a page's evaluations.
func (e *Engine) Detections(feed tip.Feed, from uint64, fanOut func(n int, fn func(i int))) *Detections {
	return &Detections{tip.NewFollower(feed, from, e.clk, e.logger), func(page []*misp.Event, _ uint64) error {
		e.evaluatePage(page, fanOut)
		return nil
	}}
}

// Run evaluates the change log page by page until ctx ends.
func (d *Detections) Run(ctx context.Context) { d.Follower.Run(ctx, d.handle) }

// Drain evaluates what the change log holds up to head, without waiting
// for a commit. Not for use while Run runs.
func (d *Detections) Drain(head uint64) { d.Follower.Drain(head, d.handle) }

// evaluatePage is the stage rule. Every revision without the lifecycle's
// decayed score meets the cIoC stage, its score hidden; then every one
// tagged caisp:eioc meets the eIoC stage with the score it carries. The
// cIoC pass covers the page before the eIoC pass, as a flush orders its
// frames, and a revision's frames depend on the revision alone. Both
// stages come from one evaluation of the revision: the first pass pushes
// its cIoC frame and keeps its eIoC matches for the second.
func (e *Engine) evaluatePage(page []*misp.Event, fanOut func(n int, fn func(i int))) {
	if e.count.Load() == 0 {
		return
	}
	eiocs := make([][]Match, len(page))
	fanOut(len(page), func(i int) {
		me := page[i]
		_, decayed := heuristic.DecayedScoreOf(me)
		score, _ := ThreatScoreOf(me)
		var ciocs []Match
		ciocs, eiocs[i] = e.evaluate(observation(me, -1), !decayed, me.HasTag("caisp:eioc"), scoreText(score))
		e.push(me, StageCIoC, ciocs)
	})
	fanOut(len(page), func(i int) { e.push(page[i], StageEIoC, eiocs[i]) })
}
