package misp

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

// blockSeedEvent is a cluster with every kind of block: indicators, a
// vulnerability decorated across another member, a standalone vector, a
// MISP vulnerability object, labels, a TLP marking and a primary SDO.
func blockSeedEvent() *Event {
	at := time.Unix(1561377600, 0)
	e := pageEvent(7)
	e.Tags = append(e.Tags, Tag{Name: "tlp:amber"}, Tag{Name: `caisp:label="campaign"`}, Tag{Name: tagMalware})
	e.AddAttribute("cvss-vector", "External analysis", "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", at)
	e.AddAttribute("vulnerability", "External analysis", "CVE-2017-9805", at).Comment = "Apache Struts RCE"
	e.AddAttribute("ip-dst", "Network activity", "198.51.100.7", time.Time{})
	e.AddAttribute("text", "Other", "products:apache struts", at)
	e.AddAttribute("link", "External analysis", "https://cve.mitre.example/CVE-2017-9805", at)
	e.AddAttribute("vulnerability", "External analysis", "CVE-2018-8008", at.Add(-time.Hour))
	e.AddAttribute("text", "Other", "os:debian", at)
	obj := e.AddObject("vulnerability", "vulnerability")
	obj.Attributes = append(obj.Attributes,
		Attribute{UUID: "22222222-2222-4222-8222-222222222222", Type: "vulnerability", Value: "CVE-2019-0230", Timestamp: UT(at)},
		Attribute{UUID: "33333333-3333-4333-8333-333333333333", Type: "text", Value: "products:apache", Timestamp: UT(at)})
	return e
}

// decodeCorpus returns the FuzzDecodeList seed corpus, as FuzzDecodeList
// seeds itself (pages under 4 KiB) and the files under testdata.
func decodeCorpus(f *testing.F) [][]byte {
	var pages [][]byte
	for _, page := range canonicalPages(f) {
		if len(page) < 4096 {
			pages = append(pages, page)
		}
	}
	for _, in := range foreignPages {
		pages = append(pages, []byte(in))
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeList", "*"))
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		_, body, _ := strings.Cut(string(raw), "\n")
		body = strings.TrimSpace(body)
		if lit, ok := strings.CutPrefix(body, "[]byte("); ok {
			if s, err := strconv.Unquote(strings.TrimSuffix(lit, ")")); err == nil {
				pages = append(pages, []byte(s))
			}
		}
	}
	return pages
}

// blockTypes are the attribute types a mutation switches between: each
// kind of block, each decoration, and types that convert to nothing.
var blockTypes = []string{"vulnerability", "cvss-vector", "link", "text", "domain", "ip-dst",
	"md5", "url", "comment", "hostname"}

// mutations is the number of kinds of mutation.
const mutations = 15

// mutate changes one input of e, chosen by op (none from mutations on),
// at attribute (or tag) index at, drawing on arg.
func mutate(e *Event, op, at uint8, arg string) {
	if arg == "" {
		arg = "x"
	}
	n := len(e.Attributes)
	i := 0
	if n > 0 {
		i = int(at) % n
	}
	shift := time.Duration(len(arg)) * time.Hour
	switch op {
	case 0:
		if n > 0 {
			e.Attributes[i].Type = blockTypes[int(at)%len(blockTypes)]
		}
	case 1:
		if n > 0 {
			e.Attributes[i].Value = arg
		}
	case 2:
		if n > 0 {
			e.Attributes[i].Value = []string{"os:", "products:", ""}[int(at)%3] + arg
			e.Attributes[i].Type = "text"
		}
	case 3:
		if n > 0 {
			e.Attributes[i].Comment = arg
		}
	case 4:
		if n > 0 {
			e.Attributes[i].ToIDS = !e.Attributes[i].ToIDS
		}
	case 5:
		if n > 0 {
			if at%2 == 0 {
				e.Attributes[i].Timestamp = UnixTime{}
			} else {
				e.Attributes[i].Timestamp = UT(e.Attributes[i].Timestamp.Add(shift))
			}
		}
	case 6:
		if n > 0 {
			e.Attributes[i].UUID = "44444444-4444-4444-8444-444444444444"
		}
	case 7:
		if at%2 == 0 {
			e.Timestamp = UnixTime{}
		} else {
			e.Timestamp = UT(e.Timestamp.Add(shift))
		}
	case 8:
		tag := []string{"tlp:" + arg, `caisp:label="` + arg + `"`, arg, tagMalware, tagTool, tagAttackPattern}[int(at)%6]
		if e.HasTag(tag) {
			kept := e.Tags[:0]
			for _, t := range e.Tags {
				if t.Name != tag {
					kept = append(kept, t)
				}
			}
			e.Tags = kept
		} else {
			e.AddTag(tag)
		}
	case 9:
		a := Attribute{UUID: "55555555-5555-4555-8555-555555555555", Type: blockTypes[len(arg)%len(blockTypes)],
			Value: arg, ToIDS: true, Timestamp: e.Timestamp}
		e.Attributes = append(e.Attributes[:i:i], append([]Attribute{a}, e.Attributes[i:]...)...)
	case 10:
		if n > 0 {
			e.Attributes = append(e.Attributes[:i:i], e.Attributes[i+1:]...)
		}
	case 11:
		if len(e.Objects) > 0 && len(e.Objects[0].Attributes) > 0 {
			as := e.Objects[0].Attributes
			as[int(at)%len(as)].Value = arg
		}
	case 12:
		if len(e.Objects) > 0 {
			if e.Objects[0].Name == "vulnerability" {
				e.Objects[0].Name = arg
			} else {
				e.Objects[0].Name = "vulnerability"
			}
		}
	case 13:
		// A TLP tag and its caisp:label twin give the same labels, but
		// only the tag marks the objects.
		if len(e.Tags) > 0 {
			tag := &e.Tags[int(at)%len(e.Tags)]
			if strings.HasPrefix(tag.Name, "tlp:") {
				tag.Name = `caisp:label="` + tag.Name + `"`
			} else if label, ok := strings.CutPrefix(tag.Name, `caisp:label="`); ok {
				tag.Name = strings.TrimSuffix(label, `"`)
			}
		}
	case 14:
		e.UUID = "66666666-6666-4666-8666-666666666666"
	}
}

// blockObjects converts every block of c, keyed by block key, with what a
// key leaves out blanked: x_misp_attribute_uuid, and the random IDs of a
// relationship and of the primary SDO it targets.
func blockObjects(t *testing.T, c *Conversion) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string, c.Len())
	for i := 0; i < c.Len(); i++ {
		var objs string
		for _, obj := range c.AppendBlock(nil, i) {
			common := obj.GetCommon()
			common.SetExtra("x_misp_attribute_uuid", "")
			if rel, ok := obj.(*stix.Relationship); ok {
				rel.ID, rel.TargetRef = "", ""
			}
			raw, err := stix.Marshal(obj)
			if err != nil {
				t.Fatal(err)
			}
			objs += string(raw) + "\n"
		}
		key := c.Key(i)
		if prev, ok := out[key]; ok && prev != objs {
			t.Fatalf("two blocks of one event share key %x but convert to\n%s\n%s", key, prev, objs)
		}
		out[key] = objs
	}
	return out
}

// FuzzBlockKeys: a block key covers everything the block's objects are
// built from. A decoded event, after an optional prep mutation, is
// mutated once more; every block of the mutated event whose key some
// block of the first has converts to the same objects as that block.
// Events are converted as decoded, valid or not: Convert does not
// validate, so what Validate refuses must neither panic it nor break the
// property.
func FuzzBlockKeys(f *testing.F) {
	seed, err := MarshalWrapped(blockSeedEvent())
	if err != nil {
		f.Fatal(err)
	}
	const none = mutations // no prep mutation
	for _, page := range decodeCorpus(f) {
		for op := uint8(0); op < mutations; op++ {
			f.Add(page, uint8(none), op, op, "products:apache")
		}
	}
	page := append(append([]byte("["), seed...), ']')
	for op := uint8(0); op < mutations; op++ {
		for at := uint8(0); at < 12; at++ {
			f.Add(page, uint8(none), op, at, "products:apache")
		}
	}
	f.Add(page, uint8(5), uint8(7), uint8(4), "x") // an undated vulnerability, then a new event timestamp
	f.Fuzz(func(t *testing.T, page []byte, prep, op, at uint8, arg string) {
		events, _, err := UnmarshalWrappedList(page)
		if err != nil {
			if e, err := UnmarshalWrapped(page); err == nil {
				events = []*Event{e}
			}
		}
		for _, e := range events {
			mutate(e, prep, at, arg)
			before := Convert(e)
			mutated := e.Clone()
			mutate(mutated, op, at, arg)
			after := Convert(mutated)
			was := blockObjects(t, before)
			for key, objs := range blockObjects(t, after) {
				if prev, ok := was[key]; ok && prev != objs {
					t.Fatalf("key %x unchanged by mutation %d, but the block converts to\n%s\nnot\n%s", key, op, objs, prev)
				}
			}
		}
	})
}
