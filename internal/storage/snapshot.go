// Streaming snapshots and parallel recovery (DESIGN.md §9). A snapshot
// is JSON-lines: one header record followed by one event per line, so
// the writer streams record-by-record through a buffered encoder (no
// whole-store Marshal buffer) and the loader can fan the per-line
// decodes out across a worker pool. The pre-segmentation monolithic
// {"seq":…,"events":[…]} format is refused with ErrLegacyFormat.
package storage

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/misp"
)

// snapshotHeader is the first line of a streaming snapshot.
type snapshotHeader struct {
	Version int    `json:"caisp_snapshot"`
	Seq     uint64 `json:"seq"`
	Count   int    `json:"count"`
}

// snapshotRecord is one snapshot line: the event plus the WAL sequence
// that installed it. Persisting the per-event seq keeps the
// ingest-sequence change log — and every replication cursor a peer
// holds against this node — stable across a compaction + restart.
// Version-3 snapshots additionally persist deletion tombstones as
// event-less lines carrying the deleted UUID and deletion time, so a
// delete survives compaction + restart instead of resurrecting from the
// last snapshot. Version-1 snapshots carried bare event lines; they
// load with synthesized sequences (cursors predating the change feed
// never referenced them).
type snapshotRecord struct {
	Seq   uint64      `json:"seq"`
	Event *misp.Event `json:"event,omitempty"`
	// UUID and DeletedAt describe a tombstone line (Event is nil).
	UUID      string `json:"uuid,omitempty"`
	DeletedAt int64  `json:"deleted_at,omitempty"`
}

// parallelDecode runs decode(0..n-1) across a worker pool, joining any
// errors. Workers stride over the index space so the output order is
// the caller's to define (each decode writes its own slot).
func parallelDecode(n, workers int, decode func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := decode(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := decode(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// writeSnapshotFile streams the event set to snapshot.json.tmp and
// atomically renames it into place. It never touches store state, so
// the caller may run it without holding the store lock as long as the
// map it passes is not being mutated (the compaction overlay guarantees
// that).
func (s *Store) writeSnapshotFile(events map[string]*storedEvent, tombs map[string]tombstone, seq uint64) error {
	tmp := filepath.Join(s.dir, snapshotFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: create snapshot temp: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	err = enc.Encode(snapshotHeader{Version: 3, Seq: seq, Count: len(events) + len(tombs)})
	for _, se := range events {
		if err != nil {
			break
		}
		err = enc.Encode(snapshotRecord{Seq: se.seq, Event: se.event})
	}
	for uuid, t := range tombs {
		if err != nil {
			break
		}
		err = enc.Encode(snapshotRecord{Seq: t.seq, UUID: uuid, DeletedAt: t.at.Unix()})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data: it writes and
// syncs a temporary file beside it and renames that into place, so a
// crash leaves the old file or the new one, never a torn one.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	if err = errors.Join(werr, serr, tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// loadSnapshot restores the persisted base state, decoding event lines
// across the recovery worker pool. Only called from Open, before the
// store is shared — applies need no lock.
func (s *Store) loadSnapshot(workers int) error {
	path := filepath.Join(s.dir, snapshotFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read snapshot: %w", err)
	}
	first := data
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		first = data[:nl]
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(first, &hdr); err != nil || hdr.Version == 0 {
		// A monolithic snapshot is one JSON document with no header line.
		if json.Valid(data) {
			return fmt.Errorf("%w: %s", ErrLegacyFormat, path)
		}
		return fmt.Errorf("storage: decode snapshot header: %v", err)
	}
	rest := bytes.TrimPrefix(data[len(first):], []byte{'\n'})
	if hdr.Count < 0 || hdr.Count > len(rest) {
		return fmt.Errorf("storage: snapshot header counts %d records in %d bytes", hdr.Count, len(rest))
	}
	lines := make([][]byte, 0, hdr.Count)
	for len(lines) < hdr.Count {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			if len(bytes.TrimSpace(rest)) == 0 {
				break
			}
			lines = append(lines, rest)
			break
		}
		lines = append(lines, rest[:nl])
		rest = rest[nl+1:]
	}
	if len(lines) != hdr.Count {
		return fmt.Errorf("storage: snapshot truncated: %d of %d events", len(lines), hdr.Count)
	}
	recs := make([]snapshotRecord, hdr.Count)
	if err := parallelDecode(hdr.Count, workers, func(i int) error {
		if hdr.Version == 1 {
			// Bare event lines; sequences are synthesized by line order
			// below.
			e := new(misp.Event)
			if err := json.Unmarshal(lines[i], e); err != nil {
				return fmt.Errorf("storage: decode snapshot event %d: %w", i, err)
			}
			recs[i] = snapshotRecord{Event: e}
			return nil
		}
		if err := json.Unmarshal(lines[i], &recs[i]); err != nil {
			return fmt.Errorf("storage: decode snapshot event %d: %w", i, err)
		}
		if recs[i].Event == nil && (hdr.Version < 3 || recs[i].UUID == "") {
			return fmt.Errorf("storage: decode snapshot event %d: missing event", i)
		}
		return nil
	}); err != nil {
		return err
	}
	if hdr.Version == 1 {
		for i := range recs {
			recs[i].Seq = uint64(i) + 1
		}
	} else {
		// Applies must run in sequence order so the change log rebuilds
		// sorted; the writer streams the event map in arbitrary order.
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	}
	s.loading = true
	for i, rec := range recs {
		if rec.Seq == 0 || i > 0 && rec.Seq == recs[i-1].Seq {
			// Every change-log entry needs its own sequence after 0, or
			// a cursor could not page past it.
			return fmt.Errorf("storage: snapshot record %d: sequence %d is zero or repeated", i, rec.Seq)
		}
		s.seq = rec.Seq
		if rec.Event != nil {
			s.apply(rec.Event, rec.Seq)
		} else {
			// Version-3 tombstone line: rebuild the deletion marker in the
			// change feed without ever having seen the event.
			s.recordTombstone(rec.UUID, rec.Seq, time.Unix(rec.DeletedAt, 0).UTC())
		}
	}
	s.loading = false
	if hdr.Seq > s.seq {
		s.seq = hdr.Seq
	}
	return nil
}

// replaySegments scans, decodes and applies every WAL segment in
// sequence order. Frame payloads are JSON-decoded across the worker
// pool; applies stay strictly sequential in sequence order, buffered
// per commit group so an uncommitted tail group is never applied. The
// final segment's torn tail (if any) is repaired by truncating the file
// back to its last committed group. Returns the segment list with
// repaired sizes for the WAL writer to resume from.
func (s *Store) replaySegments(workers int) ([]walSegment, error) {
	segs, err := listSegments(s.dir)
	if err != nil {
		return nil, err
	}
	for i := range segs {
		final := i == len(segs)-1
		data, err := os.ReadFile(segs[i].path)
		if err != nil {
			return nil, fmt.Errorf("storage: read wal segment: %w", err)
		}
		frames, committedEnd, err := scanSegment(data, final)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, filepath.Base(segs[i].path))
		}
		recs := make([]walRecord, len(frames))
		if err := parallelDecode(len(frames), workers, func(j int) error {
			if err := json.Unmarshal(frames[j].payload, &recs[j]); err != nil {
				return fmt.Errorf("storage: corrupt wal record in %s: %w", filepath.Base(segs[i].path), err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		group := 0
		for j := range frames {
			if !frames[j].commit {
				continue
			}
			for k := group; k <= j; k++ {
				if err := s.applyWALRecord(recs[k]); err != nil {
					return nil, fmt.Errorf("%w (%s)", err, filepath.Base(segs[i].path))
				}
			}
			group = j + 1
		}
		if final && committedEnd < int64(len(data)) {
			if err := os.Truncate(segs[i].path, committedEnd); err != nil {
				return nil, fmt.Errorf("storage: repair wal tail: %w", err)
			}
		}
		if final {
			segs[i].size = committedEnd
		}
	}
	return segs, nil
}

// applyWALRecord applies one replayed record, skipping records the
// snapshot already covers. Applied records count toward walOps so the
// ops-based compaction threshold survives a restart.
func (s *Store) applyWALRecord(rec walRecord) error {
	if rec.Seq <= s.seq {
		return nil
	}
	s.seq = rec.Seq
	s.walOps++
	switch rec.Op {
	case "put":
		if rec.Event != nil {
			s.apply(rec.Event, rec.Seq)
		}
	case "patch":
		if err := s.unpatch(&rec); err != nil {
			return err
		}
		s.apply(rec.Event, rec.Seq)
	case "delete":
		s.applyDeletes([]walRecord{rec})
	default:
		return fmt.Errorf("storage: unknown wal op %q", rec.Op)
	}
	return nil
}
