package sim

import (
	"bytes"
	"cmp"
	"slices"
)

// GapResource is a serially-occupied resource that, unlike Resource, can
// backfill idle gaps. Event-driven components sometimes book a resource at
// a *future* instant (a read response scheduled for when the device will be
// ready); with a plain frontier, every request arriving in between would
// queue behind that future booking even though the resource is idle. A real
// channel scheduler fills the gap — GapResource models that by remembering
// a bounded table of recent idle windows and first-fitting new reservations
// into them.
//
// The table is an ordered list: a new window goes to the back, a consumed
// window leaves without reordering the rest, and when the table is full a
// new window replaces the smallest one in place. First-fit takes the window
// giving the earliest start, ties to the earliest in table order; eviction
// takes the smallest window, ties to the earliest in table order.
//
// Windows live in fixed slots, and each carries an order key that stands
// in for its list position: an appended window draws a fresh, larger key,
// and a window that replaces an evicted one inherits the evicted key. Two
// indices over the slots answer the hot queries without walking the table:
//   - byEnd sorts the slots by window end. A reservation [at, at+dur) can
//     only fit a window ending at or after at+dur, so first-fit walks byEnd
//     down from the latest end and stops at the first window that ends too
//     early — a handful of windows, since request times move forward past
//     the older ones.
//   - heap is a min-heap on (size, key), so evict-smallest reads its root.
//     Each entry packs a window's key and slot into one word.
type GapResource struct {
	name   string
	freeAt Time
	busy   Time

	n       int       // live windows: slots, byEnd and heap hold n entries
	nextKey uint32    // next fresh order key
	t       *gapTable // allocated with the first window, kept by Reset
}

// gapWindow is one remembered idle window [start, end).
type gapWindow struct{ start, end Time }

// gapTable holds the slots and both indices. Slots [0, n) are live; a
// removed window's slot is refilled from the last one, so they stay dense.
type gapTable struct {
	slot  [maxGaps]gapWindow
	heap  [maxGaps]uint32 // heapEntry words, min-heap
	hpos  [maxGaps]uint8  // heap position of each slot
	byEnd [maxGaps]uint8  // slot ids by ascending end
}

// maxGaps bounds the remembered idle windows: on a full table a new window
// replaces the smallest one, or is dropped if it is no larger. The bound is
// part of the channel model, so changing it changes reports. Slot ids are
// uint8, so it cannot exceed 256.
const maxGaps = 256

// A heap entry is key<<8 | slot, so entries of equal-sized windows compare
// by key. Keys have 24 bits; newKey renumbers when they run out.
const keyMask = 1<<24 - 1

func heapEntry(key uint32, id uint8) uint32 { return key<<8 | uint32(id) }

// NewGapResource names a gap-filling resource.
func NewGapResource(name string) *GapResource { return &GapResource{name: name} }

// Name returns the diagnostic name.
func (r *GapResource) Name() string { return r.name }

// FreeAt returns the frontier: the earliest time a reservation is
// guaranteed to fit without gap luck.
func (r *GapResource) FreeAt() Time { return r.freeAt }

// Busy returns accumulated occupancy.
func (r *GapResource) Busy() Time { return r.busy }

// Reserve books dur starting no earlier than at, preferring the earliest
// idle gap that fits, else appending at the frontier.
func (r *GapResource) Reserve(at, dur Time) (start, end Time) {
	if o, p, s, ok := r.firstFit(at, dur); ok {
		r.fill(o, p, s, dur)
		r.busy += dur
		return s, s + dur
	}
	start = at
	if r.freeAt > start {
		start = r.freeAt
	}
	if start > r.freeAt {
		r.addGap(r.freeAt, start)
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// ReserveAt books exactly [at, at+dur) regardless of other occupancy (an
// externally arbitrated window, e.g. a migration operation granted by the
// conflict-detection logic). It never delays and never blocks earlier idle
// time; overlap with queued occupancy is the arbiter's responsibility.
func (r *GapResource) ReserveAt(at, dur Time) (start, end Time) {
	end = at + dur
	if end > r.freeAt {
		if at > r.freeAt {
			r.addGap(r.freeAt, at)
		}
		r.freeAt = end
	}
	r.busy += dur
	return at, end
}

// firstFit finds the window o, at byEnd position p, that gives [at, at+dur)
// the earliest start max(at, window start), ties to the lowest key. A window
// fits iff it ends at or after at+dur and is at least dur long.
func (r *GapResource) firstFit(at, dur Time) (o uint8, p int, start Time, ok bool) {
	t, atDur := r.t, at+dur
	for q := r.n - 1; q >= 0; q-- {
		id := t.byEnd[q]
		g := &t.slot[id]
		if g.end < atDur {
			break
		}
		if g.end-g.start < dur {
			continue
		}
		s := max(at, g.start)
		if !ok || s < start || s == start && t.key(id) < t.key(o) {
			o, p, start, ok = id, q, s, true
		}
	}
	return o, p, start, ok
}

// fill books [s, s+dur) inside window o, at byEnd position p, and keeps
// what is left of it. In table-order terms the window leaves the list, then
// its head [start, s) and its tail [s+dur, end) are added in that order,
// each appended or evicting the smallest window. Each case below reaches
// that table while reusing slot o, and with it o's place in byEnd whenever
// the window end survives (the tail keeps it).
func (r *GapResource) fill(o uint8, p int, s, dur Time) {
	t, n := r.t, r.n
	g := &t.slot[o]
	gs, ge, e := g.start, g.end, s+dur
	head, tail := gs < s, e < ge
	switch {
	case !head && !tail:
		r.drop(o, p)
	case !tail:
		// The head alone moves to the back; it is shorter unless dur is 0.
		g.end = s
		t.reenter(o, r.newKey(), n, dur > 0)
		t.place(n, p, o)
	case !head:
		// The tail alone moves to the back with o's end: byEnd is unchanged.
		g.start = e
		t.reenter(o, r.newKey(), n, dur > 0)
	case n < maxGaps:
		// Both pieces are appended, the head first. The tail takes slot o.
		r.push(gs, s, r.newKey())
		g.start = e
		t.reenter(o, r.newKey(), r.n, true)
	default:
		// Full table: the head is appended into slot o, then the tail
		// competes with every window, the head included, for the smallest.
		key := r.newKey()
		m := t.minExcept(o)
		if s-gs < t.size(m) {
			// The head is the smallest: the tail replaces it, if longer,
			// under its key, and then keeps o's end and byEnd place.
			if ge-e > s-gs {
				g.start = e
			} else {
				g.end = s
				t.place(n, p, o)
			}
			t.reenter(o, key, n, true)
			return
		}
		g.end = s
		t.reenter(o, key, n, true)
		t.place(n, p, o)
		if ge-e > t.size(m) {
			t.evict(n, m, e, ge)
		}
	}
}

// addGap records an idle window [start, end) with start < end, evicting the
// smallest when full. Only windows left behind the frontier are added here,
// so end lies past every remembered window.
func (r *GapResource) addGap(start, end Time) {
	if r.n < maxGaps {
		r.push(start, end, r.newKey())
		return
	}
	if t := r.t; end-start > t.size(uint8(t.heap[0])) {
		t.evict(r.n, uint8(t.heap[0]), start, end)
	}
}

// push appends a window in a fresh slot; the table must not be full.
func (r *GapResource) push(start, end Time, key uint32) {
	if r.t == nil {
		r.t = new(gapTable)
	}
	t, id := r.t, uint8(r.n)
	r.n++
	t.slot[id] = gapWindow{start, end}
	t.heap[id] = heapEntry(key, id)
	t.hpos[id] = id
	t.up(int(id))
	t.byEnd[id] = id
	t.place(r.n, int(id), id)
}

// drop removes window o, at byEnd position p, from the table and refills
// its slot from the last.
func (r *GapResource) drop(o uint8, p int) {
	t, n := r.t, r.n
	copy(t.byEnd[p:n-1], t.byEnd[p+1:n])
	if i := int(t.hpos[o]); i != n-1 {
		t.heap[i] = t.heap[n-1]
		t.hpos[uint8(t.heap[i])] = uint8(i)
		if !t.up(i) {
			t.down(i, n-1)
		}
	}
	n--
	r.n = n
	if last := uint8(n); o != last {
		t.byEnd[t.endPos(n, last)] = o
		t.slot[o] = t.slot[last]
		i := t.hpos[last]
		t.hpos[o] = i
		t.heap[i] = t.heap[i]&^0xff | uint32(o)
	}
}

// newKey draws a fresh order key. When the keys run out, the live ones
// are renumbered 0..n-1 in their current order, which keeps both the table
// order and the heap order.
func (r *GapResource) newKey() uint32 {
	if r.nextKey > keyMask {
		t := r.t
		var ids [maxGaps]uint8
		for i := range r.n {
			ids[i] = uint8(i)
		}
		slices.SortFunc(ids[:r.n], func(a, b uint8) int {
			return cmp.Compare(t.key(a), t.key(b))
		})
		for k, id := range ids[:r.n] {
			i := t.hpos[id]
			t.heap[i] = heapEntry(uint32(k), id)
		}
		r.nextKey = uint32(r.n)
	}
	r.nextKey++
	return r.nextKey - 1
}

// size is the length of the window in slot id.
func (t *gapTable) size(id uint8) Time { return t.slot[id].end - t.slot[id].start }

// key is the order key of the window in slot id.
func (t *gapTable) key(id uint8) uint32 { return t.heap[t.hpos[id]] >> 8 }

// reenter rewrites slot id's heap entry under key after its window changed.
// A window that shrank under a larger key can only move toward the root;
// one that grew, or kept its size under a larger key, only toward the
// leaves.
func (t *gapTable) reenter(id uint8, key uint32, n int, shrank bool) {
	i := int(t.hpos[id])
	t.heap[i] = heapEntry(key, id)
	if shrank {
		t.up(i)
	} else {
		t.down(i, n)
	}
}

// minExcept returns the slot of the smallest window other than o, in a
// table of at least three windows.
func (t *gapTable) minExcept(o uint8) uint8 {
	if t.hpos[o] != 0 {
		return uint8(t.heap[0])
	}
	if t.less(t.heap[2], t.heap[1]) {
		return uint8(t.heap[2])
	}
	return uint8(t.heap[1])
}

// evict replaces the smallest window, in slot m, with [start, end), which
// inherits m's key.
func (t *gapTable) evict(n int, m uint8, start, end Time) {
	p := t.endPos(n, m)
	t.slot[m] = gapWindow{start, end}
	t.reenter(m, t.key(m), n, false)
	t.place(n, p, m)
}

// lowerEnd returns the first byEnd position in [lo, hi) whose window ends
// at or after x, or hi.
func (t *gapTable) lowerEnd(lo, hi int, x Time) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.slot[t.byEnd[mid]].end < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// endPos returns the byEnd position of slot id.
func (t *gapTable) endPos(n int, id uint8) int { return bytes.IndexByte(t.byEnd[:n], id) }

// place moves slot id, found at byEnd position p, to its sorted position
// after its end changed.
func (t *gapTable) place(n, p int, id uint8) {
	b := t.byEnd[:n]
	e := t.slot[id].end
	if p > 0 && t.slot[b[p-1]].end > e {
		q := t.lowerEnd(0, p, e)
		copy(b[q+1:p+1], b[q:p])
		b[q] = id
	} else if p+1 < n && t.slot[b[p+1]].end < e {
		q := n - 1
		if t.slot[b[q]].end >= e {
			q = t.lowerEnd(p+1, n, e) - 1
		}
		copy(b[p:q], b[p+1:q+1])
		b[q] = id
	}
}

// less orders heap entries by (window size, key).
func (t *gapTable) less(a, b uint32) bool {
	sa, sb := t.size(uint8(a)), t.size(uint8(b))
	return sa < sb || sa == sb && a < b
}

// up sifts heap position i toward the root and reports whether it moved.
func (t *gapTable) up(i int) bool {
	x, i0 := t.heap[i], i
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(x, t.heap[p]) {
			break
		}
		t.heap[i] = t.heap[p]
		t.hpos[uint8(t.heap[i])] = uint8(i)
		i = p
	}
	t.heap[i] = x
	t.hpos[uint8(x)] = uint8(i)
	return i != i0
}

// down sifts heap position i toward the leaves of an n-entry heap.
func (t *gapTable) down(i, n int) {
	x := t.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && t.less(t.heap[c+1], t.heap[c]) {
			c++
		}
		if !t.less(t.heap[c], x) {
			break
		}
		t.heap[i] = t.heap[c]
		t.hpos[uint8(t.heap[i])] = uint8(i)
		i = c
	}
	t.heap[i] = x
	t.hpos[uint8(x)] = uint8(i)
}

// Reset clears all state: emptying the table empties the slots and both
// indices, and the order counter restarts. The table's storage is kept.
func (r *GapResource) Reset() {
	r.freeAt = 0
	r.busy = 0
	r.n = 0
	r.nextKey = 0
}

// Utilization returns busy/elapsed clamped to [0,1].
func (r *GapResource) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
