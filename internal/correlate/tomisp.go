package correlate

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/normalize"
	"github.com/caisplatform/caisp/internal/uuid"
)

// AttributeType returns the MISP attribute type the operational module
// stores an indicator of typ as: a composed IoC's member, or an
// infrastructure sighting. A type without one is stored as "text".
func AttributeType(typ normalize.IoCType) string {
	attr, _ := attributeKind(typ)
	return attr
}

// attributeKind returns the MISP attribute type and category an indicator
// of typ is stored under.
func attributeKind(typ normalize.IoCType) (attr, category string) {
	switch typ {
	case normalize.TypeIPv4, normalize.TypeIPv6, normalize.TypeCIDR:
		return "ip-dst", "Network activity"
	case normalize.TypeDomain:
		return "domain", "Network activity"
	case normalize.TypeURL:
		return "url", "Network activity"
	case normalize.TypeEmail:
		return "email-dst", "Payload delivery"
	case normalize.TypeMD5, normalize.TypeSHA1, normalize.TypeSHA256, normalize.TypeSHA512, normalize.TypeFilename:
		return string(typ), "Payload delivery" // MISP names these types alike
	case normalize.TypeCVE:
		return "vulnerability", "External analysis"
	}
	return "text", "Other"
}

// ToMISP renders a composed IoC as a MISP event, ready for storage in the
// operational module. Member events become attributes; the cIoC category
// and correlation keys become tags; per-event context rides along as
// attribute comments.
func ToMISP(c *ComposedIoC, now time.Time) (*misp.Event, error) {
	return Splice(c, nil, now)
}

// Splice renders c as ToMISP does, keeping the attribute UUIDs of prev,
// the revision the store holds for c.ID (nil for none). prev is only read,
// so it may be the store's frozen view. Members are matched in order
// against prev's attributes from where the last matched member's ended.
// A member prev carries there field for field as ToMISP renders it,
// UUIDs aside, keeps prev's UUIDs, unless it has no LastSeen and so is
// stamped now. One carried with other timestamps draws fresh UUIDs but
// is matched all the same; any other draws fresh UUIDs and leaves the
// match point where it was. A grown cluster's revision thus draws UUIDs
// only for its new members, and an attribute's UUID is stable across the
// cluster's revisions.
func Splice(c *ComposedIoC, prev *misp.Event, now time.Time) (*misp.Event, error) {
	r, err := Render(c, prev, now)
	return r.Event, err
}

// Base is what the flush keeps of a cluster's last committed revision.
// Seq is the change-log sequence the store installed it at, and Token
// the analyzer record it was scored into (worker.Analysis.Token). Events
// is the member list it was rendered from, and Starts[k] where Events[k]'s
// attributes start in it (^start for a member stamped now), then where
// the last one's end.
type Base struct {
	Seq, Token uint64
	Events     []*normalize.Event
	Starts     []int32
}

// A Revision is a cluster's revision as Render made it: the event, its
// Starts as Base's, the attribute ranges copied from prev in order, how
// many members they hold, and the base's Token.
type Revision struct {
	Event   *misp.Event
	Starts  []int32
	Copied  []Run
	Carried int
	Token   uint64
}

// A Run is a range of attributes, [At, At+Len), copied from [From,
// From+Len) of the revision before.
type Run struct{ At, From, Len int }

// Render is Splice that also reports the revision's Starts. With c.Base
// set, prev must be the revision rendered from it, which the caller
// proves by the store's sequence (Base.Seq): a member of the base, by
// pointer, not stamped now and starting at the match point, has its
// attributes copied from prev without being read. New, absorbed and
// stamped members are rendered.
func Render(c *ComposedIoC, prev *misp.Event, now time.Time) (Revision, error) {
	if len(c.Events) == 0 {
		return Revision{}, fmt.Errorf("correlate: composed IoC %s has no events", c.ID)
	}
	// misp.NewEvent's event under the cIoC identity, drawing no v4 UUID.
	e := &misp.Event{UUID: c.ID, Info: composedInfo(c), Date: now.UTC().Format("2006-01-02"),
		ThreatLevelID: misp.ThreatLevelUndefined, Analysis: misp.AnalysisInitial,
		Distribution: misp.DistributionCommunity, Timestamp: misp.UT(now)}
	e.AddTag("caisp:category=\"" + c.Category + "\"")
	e.AddTag("caisp:cioc")
	// The membership-sensitive hash rides as a tag (tags with the caisp:
	// prefix are invisible to STIX conversion, so the heuristic features
	// are unaffected). Consumers use it to detect real membership changes
	// behind a stable event UUID.
	e.AddTag(clusterContentTagPrefix + c.ContentHash() + "\"")
	for _, key := range c.CorrelationKeys {
		e.AddTag("caisp:correlated-by=\"" + key + "\"")
	}
	var old []misp.Attribute // prev's attributes
	r := Revision{Event: e, Starts: make([]int32, 0, len(c.Events)+1)}
	base := c.Base
	if prev == nil {
		base = nil
	} else if old = prev.Attributes; base != nil {
		r.Token = base.Token
	}
	// One attribute per member is the rule, and one slot is kept for the
	// analyzer's score.
	e.Attributes = make([]misp.Attribute, 0, max(len(c.Events), len(old))+1)
	o, k := 0, 0 // the match point in old, and the next member of the base
	for _, ev := range c.Events {
		start := len(e.Attributes)
		if base != nil && k < len(base.Events) && base.Events[k] == ev {
			from, end := int(base.Starts[k]), int(base.Starts[k+1])
			k++
			if end = max(end, ^end); from == o && end <= len(old) { // ^end: the next was stamped
				e.Attributes = append(e.Attributes, old[o:end]...)
				r.Starts = append(r.Starts, int32(start))
				if n := len(r.Copied) - 1; n >= 0 && r.Copied[n].At+r.Copied[n].Len == start &&
					r.Copied[n].From+r.Copied[n].Len == o {
					r.Copied[n].Len += end - o
				} else {
					r.Copied = append(r.Copied, Run{At: start, From: o, Len: end - o})
				}
				r.Carried++
				o = end
				continue
			}
		}
		var stored string // the comment at the match point, reused if it is ev's
		if o < len(old) {
			stored = old[o].Comment
		}
		e.Attributes = appendMember(e.Attributes, ev, now, stored)
		span := e.Attributes[start:]
		same, stamped := carried(old[o:], span)
		keep := same && stamped && !ev.LastSeen.IsZero()
		for j := range span {
			if keep {
				span[j].UUID = old[o+j].UUID
			} else {
				span[j].UUID = uuid.NewV4().String()
			}
		}
		if same { // the member's own span, re-stamped or not
			o += len(span)
		}
		if ev.LastSeen.IsZero() {
			start = ^start
		}
		r.Starts = append(r.Starts, int32(start))
	}
	r.Starts = append(r.Starts, int32(len(e.Attributes)))
	e.Attributes = slices.Grow(e.Attributes, 1) // a no-op unless a member rendered more
	return r, nil
}

// carried reports whether old begins with span field for field, apart
// from UUIDs and timestamps, and whether the timestamps match too. ToMISP
// renders no attribute tags, so a tagged attribute never matches.
func carried(old, span []misp.Attribute) (same, stamped bool) {
	if len(old) < len(span) {
		return false, false
	}
	stamped = true
	for k := range span {
		a, b := &span[k], &old[k]
		if a.Type != b.Type || a.Category != b.Category || a.Value != b.Value ||
			a.Comment != b.Comment || a.ToIDS != b.ToIDS || len(b.Tags) != 0 {
			return false, false
		}
		stamped = stamped && a.Timestamp.Equal(b.Timestamp.Time)
	}
	return true, stamped
}

// appendMember appends the attributes member ev renders to, without
// UUIDs: its indicator, then the context that rides beside it. It is the
// one statement of a member's rendering, so a spliced revision and a full
// one cannot drift apart. stored is a comment the indicator may share
// (see attributeComment).
func appendMember(dst []misp.Attribute, ev *normalize.Event, now time.Time, stored string) []misp.Attribute {
	typ, category := attributeKind(ev.Type)
	at := ev.LastSeen
	if at.IsZero() {
		at = now
	}
	// Advisories carry their own publication date; the attribute
	// timestamp (which becomes the STIX created/modified instant and
	// drives the timeliness heuristics) uses it when available.
	if typ == "vulnerability" {
		if published, ok := ev.Context["published"]; ok {
			if ts, err := time.Parse("2006-01-02", published); err == nil {
				at = ts.UTC()
			}
		}
	}
	add := func(typ, category, value string) {
		dst = append(dst, misp.NewAttribute(typ, category, value, at))
	}
	add(typ, category, ev.Value)
	dst[len(dst)-1].Comment = attributeComment(ev, stored)
	// NLP classification verdicts ride to SIEM consumers ("the
	// prediction confidence of the classifier can be included in the
	// data sent to SIEMs", §II-A).
	if class, ok := ev.Context["classified_as"]; ok {
		add("text", "Other", "classification:"+class+" confidence:"+ev.Context["classifier_confidence"])
	}
	if typ == "vulnerability" {
		if v, ok := ev.Context["cvss-vector"]; ok {
			add("cvss-vector", "External analysis", v)
		}
		// Context that the heuristic's accuracy features consume rides
		// along as prefixed text attributes (see misp.ToSTIX).
		if v, ok := ev.Context["os"]; ok {
			add("text", "Other", "os:"+v)
		}
		if v, ok := ev.Context["products"]; ok {
			add("text", "Other", "products:"+v)
		}
		if refs, ok := ev.Context["references"]; ok {
			for _, ref := range strings.Split(refs, ",") {
				if ref = strings.TrimSpace(ref); ref != "" {
					add("link", "External analysis", ref)
				}
			}
		}
	}
	return dst
}

func composedInfo(c *ComposedIoC) string {
	primary := c.Events[0].Value
	if len(c.Events) == 1 {
		return fmt.Sprintf("cIoC [%s] %s", c.Category, primary)
	}
	return fmt.Sprintf("cIoC [%s] %s (+%d correlated)", c.Category, primary, len(c.Events)-1)
}

// attributeComment returns the comment of member ev's indicator: its
// description, then the feeds that reported it. When stored reads so
// already it returns stored, so an unchanged member's comment is checked
// without being built.
func attributeComment(ev *normalize.Event, stored string) string {
	desc, hasDesc := ev.Context["description"]
	srcs := ev.Sources()
	if len(srcs) == 0 {
		return desc
	}
	sep := "sources: "
	if hasDesc {
		sep = " | sources: "
	}
	rest, ok := strings.CutPrefix(stored, desc)
	if ok {
		rest, ok = strings.CutPrefix(rest, sep)
	}
	for i := 0; ok && i < len(srcs); i++ {
		if i > 0 {
			rest, ok = strings.CutPrefix(rest, ", ")
		}
		if ok {
			rest, ok = strings.CutPrefix(rest, srcs[i])
		}
	}
	if ok && rest == "" {
		return stored
	}
	return desc + sep + strings.Join(srcs, ", ")
}
