package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families and children in sorted
// order. Nil-safe: a nil registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

// write renders one family: HELP and TYPE headers plus one block of
// sample lines per child, children sorted by label values.
func (f *family) write(w *bufio.Writer) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	sort.Sort(&childSort{keys: keys, children: children})

	if f.help != "" {
		w.WriteString("# HELP ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(escapeHelp(f.help))
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(f.name)
	w.WriteByte(' ')
	w.WriteString(string(f.kind))
	w.WriteByte('\n')

	for i, c := range children {
		s := c.sample()
		labels := f.labelPairs(keys[i])
		if f.kind == kindHistogram && s.hist != nil {
			writeHistogram(w, f.name, labels, s.hist)
			continue
		}
		w.WriteString(f.name)
		writeLabels(w, labels, "")
		w.WriteByte(' ')
		w.WriteString(formatValue(s.value))
		w.WriteByte('\n')
	}
}

// labelPairs splits a child key back into name=value pairs.
func (f *family) labelPairs(key string) []string {
	if len(f.labels) == 0 {
		return nil
	}
	values := strings.Split(key, "\xff")
	pairs := make([]string, 0, len(f.labels)*2)
	for i, name := range f.labels {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		pairs = append(pairs, name, v)
	}
	return pairs
}

// writeLabels renders {a="b",c="d"} with an optional extra le pair for
// histogram buckets. Writes nothing when there are no labels.
func writeLabels(w *bufio.Writer, pairs []string, le string) {
	if len(pairs) == 0 && le == "" {
		return
	}
	w.WriteByte('{')
	first := true
	for i := 0; i+1 < len(pairs); i += 2 {
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteString(pairs[i])
		w.WriteString(`="`)
		w.WriteString(escapeLabel(pairs[i+1]))
		w.WriteByte('"')
	}
	if le != "" {
		if !first {
			w.WriteByte(',')
		}
		w.WriteString(`le="`)
		w.WriteString(le)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count.
func writeHistogram(w *bufio.Writer, name string, labels []string, s *HistogramSnapshot) {
	for i, bound := range s.Bounds {
		w.WriteString(name)
		w.WriteString("_bucket")
		writeLabels(w, labels, formatValue(bound))
		w.WriteByte(' ')
		w.WriteString(strconv.FormatInt(s.Counts[i], 10))
		w.WriteByte('\n')
	}
	w.WriteString(name)
	w.WriteString("_bucket")
	writeLabels(w, labels, "+Inf")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(s.Counts[len(s.Bounds)], 10))
	w.WriteByte('\n')

	w.WriteString(name)
	w.WriteString("_sum")
	writeLabels(w, labels, "")
	w.WriteByte(' ')
	w.WriteString(formatValue(s.Sum))
	w.WriteByte('\n')

	w.WriteString(name)
	w.WriteString("_count")
	writeLabels(w, labels, "")
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(s.Count, 10))
	w.WriteByte('\n')
}

// formatValue renders a float the way Prometheus clients expect:
// integers without exponent, everything else in shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// childSort orders children by their label-values key, keeping the keys
// and children slices aligned.
type childSort struct {
	keys     []string
	children []child
}

func (c *childSort) Len() int           { return len(c.keys) }
func (c *childSort) Less(i, j int) bool { return c.keys[i] < c.keys[j] }
func (c *childSort) Swap(i, j int) {
	c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
	c.children[i], c.children[j] = c.children[j], c.children[i]
}

// Handler serves the registry as GET /metrics. Nil-safe: a nil registry
// serves an empty exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// WriteJSON answers status with v as an application/json body: v as
// encoding/json's Encoder writes it, newline included, or a
// json.RawMessage's bytes as they are.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if raw, ok := v.(json.RawMessage); ok {
		_, _ = w.Write(raw)
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}
