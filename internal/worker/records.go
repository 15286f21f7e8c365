package worker

import (
	"math"
	"time"

	"github.com/caisplatform/caisp/internal/heuristic"
)

// record is what the Analyzer keeps of a UUID's last scored revision of
// more than one block: no SDO and no evaluation, only what the next
// revision needs to skip the blocks that did not change, in block order.
type record struct {
	token  uint64        // names the record: Analysis.Token
	gen    uint64        // the collector generation the scores were taken at
	from   int64         // the latest instant a score was taken at, in Unix ns
	blocks []blockRecord // in block order
	riocs  []heuristic.RIoC
}

// blockRecord is one block's share of a record.
type blockRecord struct {
	key     uint64  // misp.Conversion.Key
	until   int64   // the last instant the score holds, in Unix ns
	score   float64 // the top score of the block's SDOs; -1 when none has a heuristic
	at, end int32   // the attributes it was converted from (misp.Conversion.Span)
	rioc    int32   // the block's first rIoC in record.riocs
	riocs   int32   // how many rIoCs the block reduced to
}

// lookup returns the block with the key whose score still holds at now,
// or nil, looking from block *next round to it and moving *next past a
// hit. Blocks come in the record's order, so the block at *next is
// compared first and ix only when it misses. A nil record holds no block.
func (r *record) lookup(key uint64, now time.Time, next *int, ix *blockIndex) *blockRecord {
	if r == nil || len(r.blocks) == 0 {
		return nil
	}
	i := *next % len(r.blocks)
	ix.probes++
	if r.blocks[i].key != key {
		if ix.at == nil {
			ix.at = make(map[uint64]int, len(r.blocks))
			for j, b := range r.blocks {
				if _, seen := ix.at[b.key]; seen {
					ix.at[b.key] = -1
				} else {
					ix.at[b.key] = j
				}
			}
		}
		j, ok := ix.at[key]
		for k := 0; ok && j < 0; k++ { // a repeated key: the scan
			ix.probes++
			if b := (i + k) % len(r.blocks); r.blocks[b].key == key {
				j = b
			}
		}
		if !ok {
			return nil
		}
		i = j
	}
	*next = i + 1
	if b := &r.blocks[i]; unixNano(now) <= b.until {
		return b
	}
	return nil
}

// blockIndex finds a record's blocks by key for one ScoreFrom call. The
// first lookup that misses builds it, so a revision whose every block
// changed compares O(blocks) keys (probes), not the record's each time.
type blockIndex struct {
	at     map[uint64]int // key -> its block, or -1 when blocks repeat it
	probes int
}

// recordSet holds one record per UUID, at most maxRecords, and
// evicts the oldest first. A forgotten UUID keeps its place in the ring
// until it comes round, so a record put again after Forget may be
// evicted early: that costs its next revision a full scoring, never a
// wrong score. Not safe for concurrent use.
type recordSet struct {
	byUUID map[string]*record
	ring   []string // UUIDs in the order their records were first put
	next   int      // the oldest ring entry once the ring is full
}

// put stores rec as the UUID's record.
func (s *recordSet) put(uuid string, rec *record) {
	if _, ok := s.byUUID[uuid]; !ok {
		if len(s.ring) < maxRecords {
			s.ring = append(s.ring, uuid)
		} else {
			delete(s.byUUID, s.ring[s.next])
			s.ring[s.next] = uuid
			s.next = (s.next + 1) % maxRecords
		}
	}
	s.byUUID[uuid] = rec
}

// forget drops the UUID's record.
func (s *recordSet) forget(uuid string) { delete(s.byUUID, uuid) }

// len returns the number of records held.
func (s *recordSet) len() int { return len(s.byUUID) }

var (
	maxUnixNano = time.Unix(0, math.MaxInt64)
	minUnixNano = time.Unix(0, math.MinInt64)
)

// unixNano is t in Unix ns, clamped to the int64 range.
func unixNano(t time.Time) int64 {
	switch {
	case t.After(maxUnixNano):
		return math.MaxInt64
	case t.Before(minUnixNano):
		return math.MinInt64
	}
	return t.UnixNano()
}
