package sim

import (
	"cmp"
	"slices"
	"testing"
)

// gapDiff drives a GapResource and refGapResource with the same operations
// and fails at the first step where their grants, frontiers, busy time or
// ordered gap tables differ, or where the resource's indices are
// inconsistent.
type gapDiff struct {
	t   *testing.T
	r   *GapResource
	ref *refGapResource
	op  int
}

func (d *gapDiff) reserve(at, dur Time) {
	d.t.Helper()
	s1, e1 := d.r.Reserve(at, dur)
	s2, e2 := d.ref.reserve(at, dur)
	d.check("Reserve", at, dur, s1, e1, s2, e2)
}

func (d *gapDiff) reserveAt(at, dur Time) {
	d.t.Helper()
	s1, e1 := d.r.ReserveAt(at, dur)
	s2, e2 := d.ref.reserveAt(at, dur)
	d.check("ReserveAt", at, dur, s1, e1, s2, e2)
}

func (d *gapDiff) check(kind string, at, dur, s1, e1, s2, e2 Time) {
	d.t.Helper()
	d.op++
	if s1 != s2 || e1 != e2 {
		d.t.Fatalf("op %d %s(%d, %d): grant [%d,%d) != reference [%d,%d)", d.op, kind, at, dur, s1, e1, s2, e2)
	}
	if d.r.FreeAt() != d.ref.freeAt || d.r.Busy() != d.ref.busy {
		d.t.Fatalf("op %d %s(%d, %d): frontier/busy (%d,%d) != reference (%d,%d)",
			d.op, kind, at, dur, d.r.FreeAt(), d.r.Busy(), d.ref.freeAt, d.ref.busy)
	}
	got := d.r.orderedGaps()
	if len(got) != len(d.ref.gaps) {
		d.t.Fatalf("op %d %s(%d, %d): %d gaps != reference %d", d.op, kind, at, dur, len(got), len(d.ref.gaps))
	}
	for i, g := range got {
		if w := d.ref.gaps[i]; g.start != w.start || g.end != w.end {
			d.t.Fatalf("op %d %s(%d, %d): gap %d [%d,%d) != reference [%d,%d)",
				d.op, kind, at, dur, i, g.start, g.end, w.start, w.end)
		}
	}
	if err := d.r.checkIndex(); err != "" {
		d.t.Fatalf("op %d %s(%d, %d): %s", d.op, kind, at, dur, err)
	}
}

// gapCount reports the remembered idle windows.
func (r *GapResource) gapCount() int { return r.n }

// gapAt returns window i in table order as (start, end).
func (r *GapResource) gapAt(i int) (Time, Time) {
	g := r.orderedGaps()[i]
	return g.start, g.end
}

// orderedGaps copies the live windows in table order.
func (r *GapResource) orderedGaps() []gapWindow {
	ids := make([]uint8, r.n)
	for i := range ids {
		ids[i] = uint8(i)
	}
	slices.SortFunc(ids, func(a, b uint8) int { return cmp.Compare(r.t.key(a), r.t.key(b)) })
	gs := make([]gapWindow, r.n)
	for i, id := range ids {
		gs[i] = r.t.slot[id]
	}
	return gs
}

// checkIndex verifies the gap table's indices against its slots: byEnd is
// a permutation of the live slots, in whose order the windows ascend
// without overlapping; every heap entry matches its window and position;
// keys are distinct and below nextKey; and the heap is ordered.
func (r *GapResource) checkIndex() string {
	if r.n == 0 {
		return ""
	}
	t := r.t
	var seen [maxGaps]bool
	for p, id := range t.byEnd[:r.n] {
		if int(id) >= r.n || seen[id] {
			return "byEnd is not a permutation of the live slots"
		}
		seen[id] = true
		if p > 0 && t.slot[t.byEnd[p-1]].end > t.slot[id].start {
			return "windows overlap or byEnd is not sorted by end"
		}
	}
	var keys [maxGaps]uint32
	for i := range r.n {
		id := uint8(i)
		g := t.slot[id]
		keys[id] = t.key(id)
		h := int(t.hpos[id])
		if h >= r.n || uint8(t.heap[h]) != id {
			return "heap position does not point back at its slot"
		}
		if g.end <= g.start || t.heap[h] != heapEntry(keys[id], id) {
			return "heap entry does not match its window"
		}
	}
	slices.Sort(keys[:r.n])
	for i, k := range keys[:r.n] {
		if i > 0 && k == keys[i-1] || k >= r.nextKey {
			return "order keys are not distinct and below the counter"
		}
	}
	for i := 1; i < r.n; i++ {
		if t.less(t.heap[i], t.heap[(i-1)/2]) {
			return "heap order violated"
		}
	}
	return ""
}

// FuzzGapResourceMatchesReference replays a byte-coded operation stream
// against GapResource and the reference algorithm. Each 4-byte record
// [op, a, b, c] is either a Reset of the resource, recycled through a Pools,
// or a burst of 1-8 Reserve or ReserveAt calls whose times and durations
// derive from a, b and c. Bit 0x10 of op scales the burst's times by 2^26,
// so windows outgrow 32 bits. Bursts let short inputs fill and churn the whole
// table; the seed corpus in testdata does, and between its entries reaches
// every case of Reserve's split and eviction logic.
func FuzzGapResourceMatchesReference(f *testing.F) {
	f.Add([]byte{0xe3, 3, 40, 5, 0xe1, 7, 90, 40, 0x00, 0, 0, 0, 0xf2, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pools Pools
		d := &gapDiff{t: t, r: pools.GapResource("fuzz"), ref: &refGapResource{}}
		var base Time
		for ; len(data) >= 4; data = data[4:] {
			op, a, b, c := data[0], Time(data[1]), Time(data[2]), Time(data[3])
			if op%16 == 0 {
				pools.Reset()
				d.r, d.ref, base = pools.GapResource("fuzz"), &refGapResource{}, 0
				if err := d.r.checkIndex(); d.r.gapCount() != 0 || err != "" {
					t.Fatalf("recycled resource not empty: %d gaps %s", d.r.gapCount(), err)
				}
				continue
			}
			scale := Time(1)
			if op&0x10 != 0 {
				scale = 1 << 26
			}
			for i := range Time(1 + op>>5) {
				// Walk the base forward, with a rewind when a is odd.
				if a%2 == 1 && i == 0 {
					base = max(0, base-a*scale)
				} else {
					base += (a + i*b%7) * scale
				}
				ahead, dur := (b*(i+1)%251)*scale, (c+i*a)%256*scale
				if op%4 == 1 {
					d.reserveAt(base+ahead*8, dur)
				} else {
					d.reserve(base+ahead, dur)
				}
			}
		}
	})
}

// TestGapResourceKeyRenumbering pushes the order-key counter to its limit
// every few hundred operations, so renumbering runs throughout a reference
// comparison, including between the two keys a split draws.
func TestGapResourceKeyRenumbering(t *testing.T) {
	d := &gapDiff{t: t, r: NewGapResource("renumber"), ref: &refGapResource{}}
	rng := NewRng(11)
	var base Time
	for op := 0; op < 20000; op++ {
		if op%300 == 0 {
			d.r.nextKey = max(d.r.nextKey, keyMask-uint32(rng.Intn(3)))
		}
		base += Time(rng.Intn(40))
		at, dur := base+Time(rng.Intn(200)), Time(rng.Intn(60))
		if rng.Intn(6) == 0 {
			d.reserveAt(at+Time(rng.Intn(3000)), dur)
		} else {
			d.reserve(at, dur)
		}
	}
}

// TestGapResourceLargeWindows runs a reference comparison with windows
// longer than 2^32 ps mixed among short ones.
func TestGapResourceLargeWindows(t *testing.T) {
	d := &gapDiff{t: t, r: NewGapResource("large"), ref: &refGapResource{}}
	rng := NewRng(5)
	var base Time
	for op := 0; op < 20000; op++ {
		unit := Time(1)
		if rng.Intn(2) == 0 {
			unit = 1 << 28
		}
		base += Time(rng.Intn(40)) * unit
		at, dur := base+Time(rng.Intn(200))*unit, Time(rng.Intn(60))*unit
		if rng.Intn(5) == 0 {
			d.reserveAt(at+Time(rng.Intn(3000))*unit, dur)
		} else {
			d.reserve(at, dur)
		}
	}
}

// TestGapResourceZeroAllocs pins the hot path: once its table exists, a
// resource allocates nothing, whether warm and full or refilled after Reset.
func TestGapResourceZeroAllocs(t *testing.T) {
	ops := fullTableOps(1 << 12)
	r := NewGapResource("allocs")
	base := replay(r, ops, 0)
	if r.gapCount() != maxGaps {
		t.Fatalf("warm table holds %d gaps, want %d", r.gapCount(), maxGaps)
	}
	var i int
	next := func() gapOp {
		i++
		op := ops[i%len(ops)]
		base += op.step
		return op
	}
	if a := testing.AllocsPerRun(2000, func() {
		op := next()
		r.Reserve(base+op.ahead, op.dur)
	}); a != 0 {
		t.Errorf("Reserve on a full table: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(2000, func() {
		op := next()
		r.ReserveAt(base+op.ahead+1000, op.dur)
	}); a != 0 {
		t.Errorf("ReserveAt on a full table: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		r.Reset()
		replay(r, ops, 0)
	}); a != 0 {
		t.Errorf("refilling after Reset: %v allocs/run", a)
	}
}
