package sim

import "testing"

type benchHandler struct{ eng *Engine }

func (h *benchHandler) Handle(arg uint64) {
	h.eng.ScheduleID(h.eng.Now()+Time(1+arg%61), h, arg+1)
}

// BenchmarkEngineChurn is the kernel's steady-state schedule->pop cycle at
// a realistic queue population (one event per resident warp).
func BenchmarkEngineChurn(b *testing.B) {
	eng := NewEngine()
	h := &benchHandler{eng: eng}
	for i := 0; i < 128; i++ {
		eng.ScheduleID(Time(i), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkGapResourceFrontier is the common fast path: reservations past
// every remembered gap append at the frontier without scanning.
func BenchmarkGapResourceFrontier(b *testing.B) {
	r := NewGapResource("bench")
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 7
		r.Reserve(at, 5)
	}
}

// BenchmarkGapResourceBackfill keeps live gaps around the request time so
// the first-fit scan actually runs (future bookings create the gaps).
func BenchmarkGapResourceBackfill(b *testing.B) {
	r := NewGapResource("bench")
	at := Time(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += 11
		if i%8 == 0 {
			r.ReserveAt(at+10000, 50) // future booking leaves a gap behind
		}
		r.Reserve(at, 3)
	}
}

// gapOp is one step of a replayed GapResource request stream: the base time
// advances by step, then either a future booking at base+ahead or a
// request at base+ahead for dur.
type gapOp struct {
	step, ahead, dur Time
	future           bool
}

// fullTableOps is a request stream modelled on what des-hetero puts on its
// channels (about 5 candidate windows per request, full tables, frequent
// splits): every eighth operation books a window 0.9-1.8k ps ahead, and the
// requests in between backfill around those bookings. On a warm table it
// keeps all 256 slots live, about 5.7 windows end late enough to be
// candidates for a request, every request fills a gap, and 45% of the fills
// split a window in two on a full table, so the tail has to evict.
func fullTableOps(n int) []gapOp {
	rng := NewRng(1)
	ops := make([]gapOp, n)
	for i := range ops {
		op := &ops[i]
		op.step = Time(1 + rng.Intn(24))
		if i%8 == 0 {
			op.future, op.ahead, op.dur = true, Time(900+rng.Intn(900)), 40
		} else {
			op.ahead, op.dur = Time(rng.Intn(8)), Time(1+rng.Intn(12))
		}
	}
	return ops
}

// replay runs ops against r from base and returns the new base.
func replay(r *GapResource, ops []gapOp, base Time) Time {
	for _, op := range ops {
		base += op.step
		if op.future {
			r.ReserveAt(base+op.ahead, op.dur)
		} else {
			r.Reserve(base+op.ahead, op.dur)
		}
	}
	return base
}

// BenchmarkGapResourceFullTable measures one operation of fullTableOps on
// a warm, full gap table: first-fit among the few windows that end late
// enough, and evict-smallest on nearly every split.
func BenchmarkGapResourceFullTable(b *testing.B) {
	ops := fullTableOps(1 << 12)
	r := NewGapResource("bench")
	base := replay(r, ops, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(len(ops)-1)]
		base += op.step
		if op.future {
			r.ReserveAt(base+op.ahead, op.dur)
		} else {
			r.Reserve(base+op.ahead, op.dur)
		}
	}
}

// BenchmarkZipfSharedCDF draws from a generator over a pre-computed CDF —
// the per-warp cost after the CDF hoist in trace generation.
func BenchmarkZipfSharedCDF(b *testing.B) {
	cdf := ZipfCDF(1.0, 4096)
	z := NewZipfCDF(NewRng(1), cdf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
