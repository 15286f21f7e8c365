// Segmented write-ahead log (DESIGN.md §9). The WAL is a sequence of
// size-bounded segment files named wal-<firstseq>.seg, each holding
// CRC32C-framed records:
//
//	offset 0  uint32 LE  payload length
//	offset 4  uint32 LE  CRC32-Castagnoli over (flags byte ‖ payload)
//	offset 8  byte       flags (bit 0: group commit)
//	offset 9  payload    JSON-encoded walRecord
//
// A put's payload splices in the event's JSON: the bytes it arrived in,
// or json.Marshal of it taken before the write lock. Either way replay
// decodes the same event, and for canonical bytes the payload is byte
// for byte json.Marshal of the walRecord, as it has always been.
//
// A revision of a stored UUID, put without raw bytes, is logged as a
// patch on the revision installed at sequence B (DESIGN.md §9):
//
//	{"seq":N,"op":"patch","base":B,"runs":[[at,from,len],…],"event":…}
//
// Attributes at..at+len-1 are the base's from..from+len-1; the event
// holds the others. Replay fails Open with ErrPatchBase unless the
// UUID's current revision was installed at B and the runs fit it.
//
// Every append group (one Delete, or one whole PutBatch) marks its
// final frame with the commit flag; recovery applies records only up to
// the last committed group, which is what makes PutBatch all-or-nothing
// across a crash. Rotation happens strictly between groups, so a group
// never spans segments. Compaction seals the active segment and later
// deletes the sealed segments the published snapshot covers — no
// truncate-in-place, no stop-the-world rewrite.
package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/caisplatform/caisp/internal/misp"
)

const (
	walSegPrefix = "wal-"
	walSegSuffix = ".seg"

	frameHdrLen     = 9
	frameCommit     = 1 << 0
	maxFramePayload = 64 << 20

	// defaultSegmentSize bounds a segment; crossing it after an append
	// group seals the segment and opens a fresh one.
	defaultSegmentSize = 4 << 20
)

var (
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
	errWALClosed = errors.New("storage: wal is closed")
)

// frameCRC covers the flags byte and the payload, so a bit flip in
// either is detected.
func frameCRC(flags byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, []byte{flags})
	return crc32.Update(crc, castagnoli, payload)
}

// walSegment describes one sealed (read-only) segment on disk.
type walSegment struct {
	path  string
	first uint64 // first sequence number the segment may contain
	size  int64
}

func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", walSegPrefix, first, walSegSuffix))
}

// listSegments returns the WAL segments in dir, ascending by first
// sequence number. Files not matching the naming scheme are ignored.
func listSegments(dir string) ([]walSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list wal segments: %w", err)
	}
	var segs []walSegment
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix), 10, 64)
		if err != nil {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, fmt.Errorf("storage: stat wal segment %s: %w", name, err)
		}
		segs = append(segs, walSegment{path: filepath.Join(dir, name), first: first, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// walWriter owns the active segment plus the list of sealed ones. All
// methods are called with the store's write lock held (or during Open,
// before the store is shared).
type walWriter struct {
	dir     string
	sync    bool
	maxSize int64

	f      *os.File
	w      *bufio.Writer
	path   string
	first  uint64 // first sequence number of the active segment
	last   uint64 // last sequence number appended
	size   int64
	sealed []walSegment

	encBuf []byte // reused group-encode buffer
	failed bool   // a truncate-back after a failed append also failed
}

// openWALWriter resumes appending to the last recovered segment, or
// starts a fresh one at nextSeq+1 when none exist. segs must be the
// replayed (and tail-repaired) segment list from recovery.
func openWALWriter(dir string, segs []walSegment, nextSeq uint64, syncEach bool, maxSize int64) (*walWriter, error) {
	w := &walWriter{dir: dir, sync: syncEach, maxSize: maxSize, last: nextSeq}
	var active walSegment
	if len(segs) > 0 {
		active = segs[len(segs)-1]
		w.sealed = append(w.sealed, segs[:len(segs)-1]...)
	} else {
		active = walSegment{path: segmentPath(dir, nextSeq+1), first: nextSeq + 1}
	}
	f, err := os.OpenFile(active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal segment: %w", err)
	}
	w.f = f
	w.w = bufio.NewWriterSize(f, 64<<10)
	w.path = active.path
	w.first = active.first
	w.size = active.size
	return w, nil
}

// append writes one commit group: every record framed, the last one
// carrying the commit flag, all in a single buffered write, one flush
// and (in sync mode) one fsync. On a write error the segment is
// truncated back to the last good group boundary so later appends never
// land behind torn garbage.
func (w *walWriter) append(recs []walRecord) error {
	if w.f == nil {
		return errWALClosed
	}
	if w.failed {
		return fmt.Errorf("storage: wal unusable after failed truncate-back")
	}
	buf := w.encBuf[:0]
	for i := range recs {
		start := len(buf)
		buf = append(buf, make([]byte, frameHdrLen)...)
		var err error
		if buf, err = recs[i].appendPayload(buf); err != nil {
			return fmt.Errorf("storage: encode wal record: %w", err)
		}
		var flags byte
		if i == len(recs)-1 {
			flags = frameCommit
		}
		payload := buf[start+frameHdrLen:]
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(buf[start+4:], frameCRC(flags, payload))
		buf[start+8] = flags
	}
	w.encBuf = buf
	err := func() error {
		if _, err := w.w.Write(buf); err != nil {
			return fmt.Errorf("storage: append wal: %w", err)
		}
		if err := w.w.Flush(); err != nil {
			return fmt.Errorf("storage: flush wal: %w", err)
		}
		if w.sync {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("storage: sync wal: %w", err)
			}
		}
		return nil
	}()
	if err != nil {
		// Part of the group may have reached the file; cut it back to the
		// previous committed boundary so the segment stays replayable.
		w.w.Reset(w.f)
		if terr := w.f.Truncate(w.size); terr != nil {
			w.failed = true
		}
		return err
	}
	w.size += int64(len(buf))
	w.last = recs[len(recs)-1].Seq
	if w.size >= w.maxSize {
		// The group is committed either way; a rotation failure only means
		// the segment keeps growing until the next attempt.
		_ = w.rotate(w.last + 1)
	}
	return nil
}

// appendPayload appends the record's JSON payload to buf.
func (r *walRecord) appendPayload(buf []byte) ([]byte, error) {
	if r.eventJSON == nil {
		data, err := json.Marshal(r)
		return append(buf, data...), err
	}
	buf = fmt.Appendf(buf, `{"seq":%d,"op":%q`, r.Seq, r.Op)
	if r.Op == "patch" {
		runs, _ := json.Marshal(r.Runs) // a [][3]int always encodes
		buf = fmt.Appendf(buf, `,"base":%d,"runs":%s`, r.Base, runs)
	}
	buf = append(append(buf, `,"event":`...), r.eventJSON...)
	return append(buf, '}'), nil
}

// ErrPatchBase is returned by Open for a WAL patch record that does not
// fit the UUID's current revision.
var ErrPatchBase = errors.New("storage: wal patch does not fit its base")

// diffAttributes returns the runs of attrs carried unchanged from base,
// [at, from, len] each, ascending and disjoint on both sides, and the
// attributes no run covers. An attribute is carried from the base
// position of its UUID when that follows the last one carried.
func diffAttributes(base, attrs []misp.Attribute) (runs [][3]int, fresh []misp.Attribute) {
	byUUID := make(map[string]int, len(base))
	for j := len(base) - 1; j >= 0; j-- {
		byUUID[base[j].UUID] = j
	}
	next := 0 // the base position after the last carried attribute
	for i := range attrs {
		k, ok := byUUID[attrs[i].UUID]
		if !ok || k < next || !sameAttribute(&base[k], &attrs[i]) {
			fresh = append(fresh, attrs[i])
			continue
		}
		if n := len(runs) - 1; n >= 0 && runs[n][0]+runs[n][2] == i && runs[n][1]+runs[n][2] == k {
			runs[n][2]++
		} else {
			runs = append(runs, [3]int{i, k, 1})
		}
		next = k + 1
	}
	return runs, fresh
}

// sameAttribute reports whether a and b encode alike, so that replay
// decodes the same attribute from either.
func sameAttribute(a, b *misp.Attribute) bool {
	return a.UUID == b.UUID && a.Value == b.Value && a.Type == b.Type && a.Category == b.Category &&
		a.Comment == b.Comment && a.ToIDS == b.ToIDS && slices.Equal(a.Tags, b.Tags) &&
		a.Timestamp.IsZero() == b.Timestamp.IsZero() && a.Timestamp.Unix() == b.Timestamp.Unix()
}

// unpatch rebuilds a replayed patch record's attributes: the runs from
// the UUID's current revision, which must have been installed at the
// record's base, with the record's own in between, in order. No runs, or
// runs that are empty, overlap, leave the base or need more attributes
// than the record holds, fail with ErrPatchBase.
func (s *Store) unpatch(rec *walRecord) error {
	var base *storedEvent
	if rec.Event != nil {
		base, _ = s.lookup(rec.Event.UUID)
	}
	if base == nil || base.seq != rec.Base || len(rec.Runs) == 0 {
		return fmt.Errorf("%w: seq %d names base %d", ErrPatchBase, rec.Seq, rec.Base)
	}
	from, fresh := base.event.Attributes, rec.Event.Attributes
	out := make([]misp.Attribute, 0, len(fresh)+len(from))
	used, fromEnd := 0, 0
	for _, run := range rec.Runs {
		at, k, n := run[0], run[1], run[2]
		gap := at - len(out)
		if n < 1 || k < fromEnd || n > len(from)-k || gap < 0 || gap > len(fresh)-used {
			return fmt.Errorf("%w: seq %d run %v", ErrPatchBase, rec.Seq, run)
		}
		out = append(append(out, fresh[used:used+gap]...), from[k:k+n]...)
		used, fromEnd = used+gap, k+n
	}
	rec.Event.Attributes = append(out, fresh[used:]...)
	return nil
}

// rotate seals the active segment and opens a fresh one whose first
// sequence number is first. A failure leaves the writer exactly as it
// was — the active segment remains valid and appendable.
func (w *walWriter) rotate(first uint64) error {
	if w.f == nil {
		return errWALClosed
	}
	if w.size == 0 {
		return nil // nothing to seal
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush wal before rotate: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("storage: sync wal before rotate: %w", err)
		}
	}
	nf, err := os.OpenFile(segmentPath(w.dir, first), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open next wal segment: %w", err)
	}
	_ = w.f.Close() // already flushed (and fsynced in sync mode)
	w.sealed = append(w.sealed, walSegment{path: w.path, first: w.first, size: w.size})
	w.f = nf
	w.w.Reset(nf)
	w.path = segmentPath(w.dir, first)
	w.first = first
	w.size = 0
	return nil
}

// dropCovered removes sealed segments fully covered by a snapshot at
// seq from the writer's bookkeeping and returns their paths for
// deletion. A sealed segment is covered when its successor's first
// sequence number is at most seq+1 (every record in it is ≤ seq).
func (w *walWriter) dropCovered(seq uint64) []string {
	var dropped []string
	for len(w.sealed) > 0 {
		next := w.first
		if len(w.sealed) > 1 {
			next = w.sealed[1].first
		}
		if next > seq+1 {
			break
		}
		dropped = append(dropped, w.sealed[0].path)
		w.sealed = w.sealed[1:]
	}
	return dropped
}

// bytes reports the total on-disk WAL footprint (active + sealed).
func (w *walWriter) bytes() int64 {
	total := w.size
	for _, s := range w.sealed {
		total += s.size
	}
	return total
}

// segments reports how many segment files the WAL spans.
func (w *walWriter) segments() int {
	return len(w.sealed) + 1
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	ferr := w.w.Flush()
	cerr := w.f.Close()
	w.f = nil
	return errors.Join(ferr, cerr)
}

// walFrame is one scanned record frame.
type walFrame struct {
	payload []byte
	commit  bool
}

// scanSegment parses the frames of one segment. For the final (active)
// segment a torn tail — an incomplete header, a payload cut short, or a
// CRC mismatch on the very last frame — ends the scan at the previous
// committed group, and committedEnd tells the caller where to truncate
// the file for repair. Any anomaly in a sealed segment, a corrupt frame
// with intact data after it, or an unknown flag bit is an error.
func scanSegment(data []byte, final bool) (frames []walFrame, committedEnd int64, err error) {
	corrupt := func(format string, args ...any) ([]walFrame, int64, error) {
		return nil, 0, fmt.Errorf("storage: corrupt wal segment: "+format, args...)
	}
	off := 0
	committed := 0 // frames in the committed prefix
	for off < len(data) {
		if len(data)-off < frameHdrLen {
			if !final {
				return corrupt("truncated frame header at offset %d", off)
			}
			break // torn tail
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		flags := data[off+8]
		if plen > maxFramePayload {
			if !final {
				return corrupt("implausible frame length %d at offset %d", plen, off)
			}
			break // torn header bytes
		}
		end := off + frameHdrLen + plen
		if end > len(data) {
			if !final {
				return corrupt("truncated frame payload at offset %d", off)
			}
			break // torn tail
		}
		payload := data[off+frameHdrLen : end]
		if frameCRC(flags, payload) != crc {
			if final && end == len(data) {
				break // torn final frame
			}
			return corrupt("crc mismatch at offset %d", off)
		}
		if flags&^frameCommit != 0 {
			return corrupt("unknown frame flags %#x at offset %d", flags, off)
		}
		frames = append(frames, walFrame{payload: payload, commit: flags&frameCommit != 0})
		off = end
		if flags&frameCommit != 0 {
			committedEnd = int64(off)
			committed = len(frames)
		}
	}
	frames = frames[:committed]
	if !final && committedEnd != int64(len(data)) {
		return corrupt("segment ends mid-group at offset %d", committedEnd)
	}
	return frames, committedEnd, nil
}
