package sim

import (
	"container/heap"
	"math"
	"strings"
	"testing"
)

// refEvent / refHeap reimplement the pre-rewrite container/heap event queue
// as the ordering oracle: the index-based 4-ary kernel must pop events in
// exactly the (at, seq) order the pointer heap produced.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// orderRecorder collects the ids of fired events.
type orderRecorder struct{ got []uint64 }

func (r *orderRecorder) Handle(arg uint64) { r.got = append(r.got, arg) }

// TestKernelMatchesReferenceHeap drives the engine and the old-kernel
// reference with an identical pseudo-random schedule — heavy time
// collisions included — and requires the exact same firing order.
func TestKernelMatchesReferenceHeap(t *testing.T) {
	const n = 5000
	rng := NewRng(42)
	eng := NewEngine()
	rec := &orderRecorder{}
	var ref refHeap
	var seq uint64
	for i := 0; i < n; i++ {
		// Few distinct times => many (at) ties resolved by seq.
		at := Time(rng.Intn(97))
		eng.ScheduleID(at, rec, uint64(i))
		heap.Push(&ref, &refEvent{at: at, seq: seq, id: i})
		seq++
	}
	eng.Run()
	if len(rec.got) != n {
		t.Fatalf("fired %d events, want %d", len(rec.got), n)
	}
	for i := 0; i < n; i++ {
		want := heap.Pop(&ref).(*refEvent)
		if rec.got[i] != uint64(want.id) {
			t.Fatalf("event %d fired id %d, reference heap says %d", i, rec.got[i], want.id)
		}
	}
}

// TestScheduleIDAndAfterIDInterleave proves absolute and relative
// scheduling share one sequence ordering: alternating both forms at one
// timestamp fires in exact submission order.
func TestScheduleIDAndAfterIDInterleave(t *testing.T) {
	eng := NewEngine()
	rec := &orderRecorder{}
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			eng.AfterID(5, rec, uint64(i))
		} else {
			eng.ScheduleID(5, rec, uint64(i))
		}
	}
	eng.Run()
	if len(rec.got) != 20 {
		t.Fatalf("fired %d events, want 20", len(rec.got))
	}
	for i, v := range rec.got {
		if v != uint64(i) {
			t.Fatalf("position %d fired event %d; ScheduleID and AfterID events must share seq order", i, v)
		}
	}
}

// handlerFunc adapts a plain function to Handler for tests that need an
// event to act on the engine.
type handlerFunc func(arg uint64)

func (f handlerFunc) Handle(arg uint64) { f(arg) }

// churnHandler keeps a constant-population event queue: every fired event
// schedules its successor, the steady state of every simulation.
type churnHandler struct {
	eng  *Engine
	left int
}

func (h *churnHandler) Handle(arg uint64) {
	if h.left <= 0 {
		return
	}
	h.left--
	h.eng.ScheduleID(h.eng.Now()+Time(1+arg%13), h, arg+1)
}

// TestSteadyStateLoopAllocFree is the tentpole guard: once the arena and
// free-list are warm, the closure-free schedule->fire loop must not
// allocate at all.
func TestSteadyStateLoopAllocFree(t *testing.T) {
	eng := NewEngine()
	h := &churnHandler{eng: eng, left: 1 << 30}
	const population = 32
	for i := 0; i < population; i++ {
		eng.ScheduleID(Time(i), h, uint64(i))
	}
	// Warm the arena, heap and free-list.
	for i := 0; i < 4*population; i++ {
		eng.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() { eng.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state event loop allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFreeListRecyclesArena(t *testing.T) {
	eng := NewEngine()
	rec := &orderRecorder{}
	// Schedule and drain the same population repeatedly: the arena must not
	// grow past the high-water mark of simultaneously pending events.
	for round := 0; round < 10; round++ {
		for i := 0; i < 8; i++ {
			eng.ScheduleID(eng.Now()+Time(i+1), rec, uint64(i))
		}
		eng.Run()
	}
	if got := len(eng.arena); got > 8 {
		t.Fatalf("arena grew to %d slots for a max-8-pending workload", got)
	}
}

func TestTimeStringMinInt64(t *testing.T) {
	// Regression: -t on MinInt64 wraps back to MinInt64 and used to recurse
	// until stack exhaustion.
	s := Time(math.MinInt64).String()
	if !strings.HasPrefix(s, "-") || !strings.HasSuffix(s, "s") {
		t.Fatalf("Time(MinInt64).String() = %q, want a negative seconds rendering", s)
	}
	// Ordinary negatives keep the old format.
	if got := Time(-1500).String(); got != "-1.500ns" {
		t.Fatalf("Time(-1500).String() = %q, want \"-1.500ns\"", got)
	}
}
