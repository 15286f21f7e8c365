package subscribe

import (
	"encoding/json"
	"strconv"
	"time"

	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/stixpattern"
	"github.com/caisplatform/caisp/internal/wsock"
)

// Extension object paths the platform adds beyond the members' own STIX
// fields, so patterns can select on cluster category and analyzer score:
//
//	[x-caisp:category = 'vulnerability-exploitation']
//	[x-caisp:threat-score >= 0.5]
const (
	PathCategory    = "x-caisp:category"
	PathThreatScore = "x-caisp:threat-score"
)

// EventFrame is the WebSocket payload pushed to /ws/matches watchers: one
// admitted event and every subscription it satisfied. The frame is JSON- and
// WebSocket-encoded once and fanned out prepared.
type EventFrame struct {
	Kind  string `json:"kind"` // "match"
	Stage Stage  `json:"stage"`
	Event string `json:"event_uuid"`
	Info  string `json:"info"`
	// At is the admitted event's MISP timestamp; PushedUnixNano stamps hub
	// submission so consumers can measure push lag.
	At             time.Time `json:"at"`
	PushedUnixNano int64     `json:"pushed_unix_nano"`
	Matches        []Match   `json:"matches"`
}

// ObservationFromMISP projects a stored MISP event onto STIX object paths.
// An admitted cIoC is read as stored: each member attribute's MISP type
// names its STIX path and its value is already canonical, because the
// correlator wrote it from a normalized event. Other events (e.g. raw
// events posted to tipd) have each attribute value normalized
// individually. threatScore < 0 reads the score the event carries, if any.
func ObservationFromMISP(me *misp.Event, threatScore float64) stixpattern.Observation {
	if threatScore < 0 {
		// Stored eIoCs carry the score as a comment attribute; recover it
		// so log-driven evaluation (tipd) sees the same fields as in-core
		// dispatch.
		threatScore, _ = ThreatScoreOf(me)
	}
	return observation(me, threatScore)
}

// observation is ObservationFromMISP without the score recovery:
// threatScore < 0 exposes no score.
func observation(me *misp.Event, threatScore float64) stixpattern.Observation {
	fields := make(map[string][]string, 8)
	cat := correlate.CategoryOf(me)
	if cat != "" && me.HasTag("caisp:cioc") {
		for i := range me.Attributes {
			a := &me.Attributes[i]
			if typ, ok := correlate.MemberType(a); ok {
				path := normalize.ObservationPath(typ)
				fields[path] = append(fields[path], a.Value)
			}
		}
	}
	if len(fields) == 0 {
		// Not a cIoC, or one whose members all have an unknown type and were
		// stored as free text.
		for i := range me.Attributes {
			a := &me.Attributes[i]
			if a.Type == "comment" {
				continue
			}
			ev, err := normalize.New(a.Value, "", "", normalize.SourceOSINT, a.Timestamp.Time)
			if err != nil {
				continue
			}
			path := normalize.ObservationPath(ev.Type)
			fields[path] = append(fields[path], ev.Value)
		}
	}
	if cat != "" {
		fields[PathCategory] = []string{cat}
	}
	if s := scoreText(threatScore); s != "" {
		fields[PathThreatScore] = []string{s}
	}
	return stixpattern.Observation{At: me.Timestamp.Time, Fields: fields}
}

// scoreText is the PathThreatScore value shown for threatScore, "" if < 0.
func scoreText(threatScore float64) string {
	if threatScore < 0 {
		return ""
	}
	return strconv.FormatFloat(threatScore, 'f', -1, 64)
}

// ThreatScoreOf recovers the analyzer score written back into a stored eIoC
// ("threat-score:0.6250" comment attribute). Returns -1, false when absent.
// When the lifecycle engine has landed a decayed score it wins: standing
// score-gated detections see the same freshness-adjusted value the
// dashboard ranks by.
func ThreatScoreOf(me *misp.Event) (float64, bool) {
	if f, ok := heuristic.DecayedScoreOf(me); ok {
		return f, true
	}
	if f, ok := heuristic.BaseScoreOf(me); ok {
		return f, true
	}
	return -1, false
}

// EvaluateMISP evaluates an admitted MISP event against the live pattern
// set and, on any match, pushes one encode-once frame to every watcher.
// It returns the number of matched subscriptions. The cIoC stage evaluates
// a composed cluster, which has no score: it never exposes
// x-caisp:threat-score, even on a revision committed with its eIoC score
// attached. At the eIoC stage, threatScore < 0 reads the event's own.
func (e *Engine) EvaluateMISP(me *misp.Event, stage Stage, threatScore float64) int {
	if e.count.Load() == 0 {
		return 0
	}
	var obs stixpattern.Observation
	if stage == StageCIoC {
		obs = observation(me, -1)
	} else {
		obs = ObservationFromMISP(me, threatScore)
	}
	matches := e.Evaluate(obs)
	e.push(me, stage, matches)
	return len(matches)
}

// push sends the frame of me's matches at stage to every watcher, if any
// matched.
func (e *Engine) push(me *misp.Event, stage Stage, matches []Match) {
	if len(matches) == 0 {
		return
	}
	frame := EventFrame{
		Kind:    "match",
		Stage:   stage,
		Event:   me.UUID,
		Info:    me.Info,
		At:      me.Timestamp.Time,
		Matches: matches,
	}
	frame.PushedUnixNano = time.Now().UnixNano()
	payload, err := json.Marshal(frame)
	if err != nil {
		e.logger.Warn("subscribe: encode match frame", "error", err)
		return
	}
	e.hub.BroadcastPrepared(wsock.PrepareText(payload))
}
