package misp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// ListItem is one element of an event list on the wire: a wrapped event,
// optionally beside siblings the list's consumer owns. The siblings stay
// raw JSON (already checked to be valid), so this package needs none of
// their types.
type ListItem struct {
	Event          *Event          `json:"Event"`
	EventTombstone json.RawMessage `json:"EventTombstone"`
	Provenance     json.RawMessage `json:"Provenance"`
	// EventJSON is the span of the page Event was decoded from, kept on
	// the fast path only: encoding/json decodes it to an equal Event. It
	// aliases the page and is read-only.
	EventJSON []byte `json:"-"`
}

// DecodeList decodes a JSON array of list items. A page in the canonical
// encoding our own server emits takes the single-pass decoder below;
// anything else is decoded by encoding/json, which therefore stays the
// definition of what decodes to what: fast path or stdlib, never a third
// answer. On the fast path the raw siblings alias data.
func DecodeList(data []byte) ([]ListItem, error) {
	if items, ok := decodeList(data, false); ok {
		return items, nil
	}
	var items []ListItem
	if err := json.Unmarshal(data, &items); err != nil {
		return nil, err
	}
	return items, nil
}

// UnmarshalWrapped decodes an event from either the wrapped or the bare form.
func UnmarshalWrapped(data []byte) (*Event, error) {
	d := decoder{data: data}
	if e := d.wrappedOrBare(); d.atEnd() && e.UUID != "" {
		return e, nil
	}
	var w Wrapped
	if err := json.Unmarshal(data, &w); err == nil && w.Event != nil {
		return w.Event, nil
	}
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("misp: decode event: %w", err)
	}
	if e.UUID == "" {
		return nil, fmt.Errorf("misp: decoded event has no uuid")
	}
	return &e, nil
}

// UnmarshalWrappedList decodes a JSON array whose elements are each what
// UnmarshalWrapped accepts. Elements that do not decode are reported in
// rejected and skipped; err is set only when data is not an array.
func UnmarshalWrappedList(data []byte) (events []*Event, rejected []error, err error) {
	if items, ok := decodeList(data, true); ok {
		events = make([]*Event, len(items))
		for i := range items {
			events[i] = items[i].Event
		}
		return events, nil, nil
	}
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, err
	}
	events = make([]*Event, 0, len(raw))
	for _, item := range raw {
		e, err := UnmarshalWrapped(item)
		if err != nil {
			rejected = append(rejected, err)
			continue
		}
		events = append(events, e)
	}
	return events, rejected, nil
}

// decodeList is the fast path of DecodeList; ok is false when the page is
// not in the canonical encoding. With bare set every element must carry
// an event with a UUID, wrapped or bare (UnmarshalWrappedList).
func decodeList(data []byte, bare bool) (items []ListItem, ok bool) {
	d := decoder{data: data}
	items = []ListItem{}
	for more := d.open('[', ']'); more; more = d.next(']') {
		if !bare {
			items = append(items, d.item())
		} else if e := d.wrappedOrBare(); e.UUID != "" {
			items = append(items, ListItem{Event: e})
		} else {
			return nil, false
		}
	}
	return items, d.atEnd()
}

// maxRawDepth bounds the nesting the decoder follows inside a value it
// hands to encoding/json; deeper input takes the stdlib path whole.
const maxRawDepth = 32

// decoder reads the canonical MISP encoding in one pass: exactly the keys
// json.Marshal writes for Event, Attribute and Tag, each at most once,
// each with a value of its own JSON type. On anything else it sets bad
// and the caller falls back to encoding/json. The values it accepts
// decode exactly as encoding/json decodes them.
type decoder struct {
	data []byte
	pos  int
	bad  bool

	// attrs and tags collect a slice's elements before it is copied out
	// at its final size.
	attrs []Attribute
	tags  []Tag
}

// peek skips whitespace and returns the next byte, 0 at the end of data.
func (d *decoder) peek() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) eat(c byte) bool {
	if d.peek() != c {
		d.bad = true
		return false
	}
	d.pos++
	return true
}

// atEnd reports whether the input was accepted and is used up.
func (d *decoder) atEnd() bool {
	d.peek()
	return !d.bad && d.pos == len(d.data)
}

// open enters an object or array and reports whether it has a first
// member; next steps past a member's value and reports whether another
// follows.
func (d *decoder) open(opener, closer byte) bool {
	if !d.eat(opener) {
		return false
	}
	if d.peek() == closer {
		d.pos++
		return false
	}
	return true
}

func (d *decoder) next(closer byte) bool {
	if d.bad {
		return false
	}
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case closer:
		d.pos++
		return false
	}
	d.bad = true
	return false
}

// key reads a member key and its colon. A key with an escape comes back
// cut short, which no caller recognises.
func (d *decoder) key() []byte {
	if !d.eat('"') {
		return nil
	}
	n := bytes.IndexByte(d.data[d.pos:], '"')
	if n < 0 {
		d.bad = true
		return nil
	}
	k := d.data[d.pos : d.pos+n]
	d.pos += n + 1
	d.eat(':')
	return k
}

// once records that a key was met and fails on its second appearance:
// encoding/json merges duplicates, this decoder does not.
func (d *decoder) once(seen *uint, bit uint) *decoder {
	if *seen&bit != 0 {
		d.bad = true
	}
	*seen |= bit
	return d
}

func (d *decoder) str() string {
	if !d.eat('"') {
		return ""
	}
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := string(d.data[d.pos:i])
			d.pos = i + 1
			return s
		case c == '\\' || c < 0x20 || c >= 0x80:
			return d.strSlow(i)
		}
	}
	d.bad = true
	return ""
}

// strSlow finishes a string that holds an escape, a control byte or a
// non-ASCII byte at i: encoding/json unquotes (or rejects) that string.
func (d *decoder) strSlow(i int) string {
	for ; i < len(d.data); i++ {
		switch d.data[i] {
		case '\\':
			i++
		case '"':
			var s string
			if json.Unmarshal(d.data[d.pos-1:i+1], &s) != nil {
				d.bad = true
			}
			d.pos = i + 1
			return s
		}
	}
	d.bad = true
	return ""
}

// digits reads up to max decimal digits and returns their value and count.
func (d *decoder) digits(max int) (v int64, n int) {
	for ; d.pos < len(d.data) && d.data[d.pos]-'0' <= 9; d.pos++ {
		v = v*10 + int64(d.data[d.pos]-'0')
		if n++; n > max {
			d.bad = true
			return 0, n
		}
	}
	return v, n
}

// int reads an integer literal of at most nine digits, so that it fits an
// int on every platform.
func (d *decoder) int() int {
	neg := d.peek() == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	v, n := d.digits(9)
	if n == 0 || n > 1 && d.data[start] == '0' {
		d.bad = true
	}
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '.', 'e', 'E':
			d.bad = true
		}
	}
	if neg {
		v = -v
	}
	return int(v)
}

func (d *decoder) bool() bool {
	d.peek()
	switch rest := d.data[d.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		d.pos += 4
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += 5
		return false
	}
	d.bad = true
	return false
}

// unixTime reads a timestamp in the form MarshalJSON writes: a string of
// decimal digits, "0" meaning the zero time.
func (d *decoder) unixTime() UnixTime {
	if !d.eat('"') {
		return UnixTime{}
	}
	secs, n := d.digits(18)
	if n == 0 || d.pos >= len(d.data) || d.data[d.pos] != '"' {
		d.bad = true
		return UnixTime{}
	}
	d.pos++
	if n == 1 && secs == 0 {
		return UnixTime{}
	}
	return UnixTime{time.Unix(secs, 0).UTC()}
}

// rawSpan returns the bytes of the next value, whatever it is, without
// checking them: a caller hands them to encoding/json, which does.
func (d *decoder) rawSpan() []byte {
	d.peek()
	start, depth := d.pos, 0
	for i := start; i < len(d.data); i++ {
		end := i + 1
		switch d.data[i] {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
			end = i + 1
		case '{', '[':
			if depth++; depth > maxRawDepth {
				d.bad = true
				return nil
			}
			continue
		case '}', ']':
			if depth--; depth < 0 {
				end = i // a scalar ran into its parent's closer
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth > 0 {
				continue
			}
			end = i
		default:
			continue
		}
		if depth <= 0 && end <= len(d.data) {
			d.pos = end
			return d.data[start:end]
		}
	}
	d.bad = true
	return nil
}

// raw is rawSpan for a value this package only passes on.
func (d *decoder) raw() json.RawMessage {
	v := d.rawSpan()
	if !json.Valid(v) {
		d.bad = true
	}
	return v
}

// into decodes the next value into v with encoding/json.
func (d *decoder) into(v any) {
	if span := d.rawSpan(); d.bad || json.Unmarshal(span, v) != nil {
		d.bad = true
	}
}

// wrappedOrBare reads {"Event":{…}} or a bare event object. It is told
// apart at the first key: an item fails there on an event's own key.
func (d *decoder) wrappedOrBare() *Event {
	start := d.pos
	if it := d.item(); !d.bad && it.Event != nil {
		return it.Event
	}
	d.pos, d.bad = start, false
	return d.event()
}

func (d *decoder) item() (it ListItem) {
	var seen uint
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "Event":
			d.once(&seen, 1<<0).peek()
			start := d.pos
			it.Event = d.event()
			it.EventJSON = d.data[start:d.pos:d.pos]
		case "EventTombstone":
			it.EventTombstone = d.once(&seen, 1<<1).raw()
		case "Provenance":
			it.Provenance = d.once(&seen, 1<<2).raw()
		default:
			d.bad = true
		}
	}
	return it
}

func (d *decoder) event() *Event {
	e := new(Event)
	var seen uint
	for more := d.open('{', '}'); more; more = d.next('}') {
		switch string(d.key()) {
		case "uuid":
			e.UUID = d.once(&seen, 1<<0).str()
		case "info":
			e.Info = d.once(&seen, 1<<1).str()
		case "date":
			e.Date = d.once(&seen, 1<<2).str()
		case "threat_level_id":
			e.ThreatLevelID = d.once(&seen, 1<<3).int()
		case "analysis":
			e.Analysis = d.once(&seen, 1<<4).int()
		case "distribution":
			e.Distribution = d.once(&seen, 1<<5).int()
		case "published":
			e.Published = d.once(&seen, 1<<6).bool()
		case "timestamp":
			e.Timestamp = d.once(&seen, 1<<7).unixTime()
		case "Orgc":
			d.once(&seen, 1<<8).into(&e.Orgc)
		case "Attribute":
			e.Attributes = d.once(&seen, 1<<9).attributes()
		case "Object":
			d.once(&seen, 1<<10).into(&e.Objects)
		case "Tag":
			e.Tags = d.once(&seen, 1<<11).tagList()
		default:
			d.bad = true
		}
	}
	return e
}

func (d *decoder) attributes() []Attribute {
	mark := len(d.attrs)
	for more := d.open('[', ']'); more; more = d.next(']') {
		var a Attribute
		var seen uint
		for more := d.open('{', '}'); more; more = d.next('}') {
			switch string(d.key()) {
			case "uuid":
				a.UUID = d.once(&seen, 1<<0).str()
			case "type":
				a.Type = d.once(&seen, 1<<1).str()
			case "category":
				a.Category = d.once(&seen, 1<<2).str()
			case "value":
				a.Value = d.once(&seen, 1<<3).str()
			case "comment":
				a.Comment = d.once(&seen, 1<<4).str()
			case "to_ids":
				a.ToIDS = d.once(&seen, 1<<5).bool()
			case "timestamp":
				a.Timestamp = d.once(&seen, 1<<6).unixTime()
			case "Tag":
				a.Tags = d.once(&seen, 1<<7).tagList()
			default:
				d.bad = true
			}
		}
		d.attrs = append(d.attrs, a)
	}
	out := append([]Attribute{}, d.attrs[mark:]...)
	d.attrs = d.attrs[:mark]
	return out
}

func (d *decoder) tagList() []Tag {
	mark := len(d.tags)
	for more := d.open('[', ']'); more; more = d.next(']') {
		var t Tag
		var seen uint
		for more := d.open('{', '}'); more; more = d.next('}') {
			switch string(d.key()) {
			case "name":
				t.Name = d.once(&seen, 1<<0).str()
			case "colour":
				t.Colour = d.once(&seen, 1<<1).str()
			default:
				d.bad = true
			}
		}
		d.tags = append(d.tags, t)
	}
	out := append([]Tag{}, d.tags[mark:]...)
	d.tags = d.tags[:mark]
	return out
}
