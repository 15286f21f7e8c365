// Package ringset provides a capacity-bounded string set with FIFO
// eviction: a set that remembers recent keys in constant memory under
// sustained traffic, forgetting the oldest first. The benchmark's serial
// replay (bench/replay.go) uses it to skip a (UUID, content hash) it has
// scored. Not safe for concurrent use; callers hold their own lock.
package ringset

// Set is a bounded set of strings with first-in-first-out eviction.
// Construct with New.
type Set struct {
	capacity int
	items    map[string]struct{}
	ring     []string
	next     int
	evicted  int
}

// New returns a Set that holds at most capacity members; capacity < 1 is
// normalized to 1.
func New(capacity int) *Set {
	if capacity < 1 {
		capacity = 1
	}
	return &Set{
		capacity: capacity,
		items:    make(map[string]struct{}, capacity),
		ring:     make([]string, 0, capacity),
	}
}

// Contains reports whether k is currently a member.
func (s *Set) Contains(k string) bool {
	_, ok := s.items[k]
	return ok
}

// Add inserts k, evicting the oldest member when the set is full. It
// reports whether k was newly added (false when already present).
func (s *Set) Add(k string) bool {
	if s.Contains(k) {
		return false
	}
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, k)
	} else {
		delete(s.items, s.ring[s.next])
		s.ring[s.next] = k
		s.evicted++
	}
	s.next = (s.next + 1) % s.capacity
	s.items[k] = struct{}{}
	return true
}

// Len returns the current number of members.
func (s *Set) Len() int { return len(s.items) }

// Evicted returns how many members were displaced by capacity pressure.
func (s *Set) Evicted() int { return s.evicted }
