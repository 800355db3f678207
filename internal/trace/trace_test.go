package trace

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// TestNilTracerIsSafe pins the zero-cost contract's API half: every
// method no-ops (or returns a zero value) on a nil receiver, so
// instrumentation sites need exactly one branch.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(EvFault4K, 1, 2, 3)
	tr.EmitDur(EvWalkNative, 10, 1, 2, 3)
	tr.EmitSpan(EvSimBatch, tr.Start(), 1, 2, 3)
	tr.EmitPhase("setup", tr.Start())
	tr.SetGauge(tr.Gauge("g"), 7)
	tr.Sample()
	if got := tr.Start(); got != 0 {
		t.Errorf("nil Start() = %d, want 0", got)
	}
	if got := tr.Gauge("g"); got != -1 {
		t.Errorf("nil Gauge() = %d, want -1", got)
	}
	if tr.Count(EvFault4K) != 0 || tr.TotalEvents() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer reported nonzero counts")
	}
	if _, ok := tr.GaugeValue("g"); ok {
		t.Error("nil GaugeValue() reported a gauge")
	}
	if tr.Events() != nil {
		t.Error("nil Events() != nil")
	}
}

func TestCountsAndEvents(t *testing.T) {
	tr := New()
	tr.Emit(EvFault4K, 0x1000, 600, 1000)
	tr.Emit(EvFault4K, 0x2000, 600, 2000)
	tr.Emit(EvTLBMiss, 0x3000, 0, 0)
	if got := tr.Count(EvFault4K); got != 2 {
		t.Errorf("Count(EvFault4K) = %d, want 2", got)
	}
	if got := tr.TotalEvents(); got != 3 {
		t.Errorf("TotalEvents = %d, want 3", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("stored %d events, want 3", len(evs))
	}
	// Logical timestamps are strictly increasing in emission order.
	for i := 1; i < len(evs); i++ {
		if evs[i].TS <= evs[i-1].TS {
			t.Errorf("timestamps not increasing: evs[%d].TS=%d after %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
	if e := evs[0]; e.Kind != EvFault4K || e.A != 0x1000 || e.B != 600 || e.C != 1000 {
		t.Errorf("event args not preserved: %+v", e)
	}
}

func TestBufferCapDropsButCounts(t *testing.T) {
	tr := NewCapped(2)
	for i := 0; i < 5; i++ {
		tr.Emit(EvBuddySplit, uint64(i), 0, 0)
	}
	if got := len(tr.Events()); got != 2 {
		t.Errorf("stored %d events, want 2 (cap)", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	// Counters are exact past saturation.
	if got := tr.Count(EvBuddySplit); got != 5 {
		t.Errorf("Count = %d, want 5 despite drops", got)
	}
}

func TestGaugeRegistryIdempotent(t *testing.T) {
	tr := New()
	a := tr.Gauge("buddy.z0.frag")
	b := tr.Gauge("buddy.z0.o3")
	if a == b {
		t.Fatal("distinct names share an id")
	}
	if again := tr.Gauge("buddy.z0.frag"); again != a {
		t.Errorf("re-registration changed id: %d != %d", again, a)
	}
	tr.SetGauge(a, 42)
	if v, ok := tr.GaugeValue("buddy.z0.frag"); !ok || v != 42 {
		t.Errorf("GaugeValue = %d,%v, want 42,true", v, ok)
	}
	tr.SetGauge(999, 1) // invalid id is ignored, not a panic
	if _, ok := tr.GaugeValue("absent"); ok {
		t.Error("unregistered gauge reported present")
	}
}

func TestSpans(t *testing.T) {
	tr := New()
	start := tr.Start()
	tr.Emit(EvFault4K, 1, 0, 0)
	tr.Emit(EvFault4K, 2, 0, 0)
	tr.EmitSpan(EvSimBatch, start, 10, 20, 30)
	evs := tr.Events()
	span := evs[len(evs)-1]
	if span.Kind != EvSimBatch || span.TS != start {
		t.Fatalf("span not anchored at start: %+v", span)
	}
	// Start ticked seq to 1; two faults and the close tick it to 4.
	if span.Dur != 3 {
		t.Errorf("span Dur = %d, want 3 (sequence distance)", span.Dur)
	}

	// A stale start beyond the current seq clamps instead of underflowing.
	tr2 := New()
	tr2.EmitSpan(EvSimBatch, 99, 0, 0, 0)
	if e := tr2.Events()[0]; e.TS != 1 || e.Dur != 0 {
		t.Errorf("stale start not clamped: %+v", e)
	}
}

func TestPhaseInterning(t *testing.T) {
	tr := New()
	tr.EmitPhase("setup", tr.Start())
	tr.EmitPhase("settle", tr.Start())
	tr.EmitPhase("setup", tr.Start())
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("stored %d events, want 3", len(evs))
	}
	if evs[0].A != evs[2].A {
		t.Errorf("same phase name interned to different ids: %d != %d", evs[0].A, evs[2].A)
	}
	if evs[0].A == evs[1].A {
		t.Error("distinct phase names share an id")
	}
	if got := tr.phaseName(evs[1].A); got != "settle" {
		t.Errorf("phaseName = %q, want settle", got)
	}
}

func TestSampleSnapshotsCounters(t *testing.T) {
	tr := New()
	g := tr.Gauge("frag")
	tr.Emit(EvFault4K, 1, 0, 0)
	tr.SetGauge(g, 100)
	tr.Sample()
	tr.Emit(EvFault4K, 2, 0, 0)
	tr.SetGauge(g, 200)
	tr.Sample()
	if len(tr.samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(tr.samples))
	}
	if tr.samples[0].kinds[EvFault4K] != 1 || tr.samples[1].kinds[EvFault4K] != 2 {
		t.Errorf("cumulative kind counts wrong: %d, %d",
			tr.samples[0].kinds[EvFault4K], tr.samples[1].kinds[EvFault4K])
	}
	if tr.samples[0].gauges[g] != 100 || tr.samples[1].gauges[g] != 200 {
		t.Errorf("gauge snapshots wrong: %d, %d", tr.samples[0].gauges[g], tr.samples[1].gauges[g])
	}
}

// TestConcurrentEmit exercises the tracer the way the experiment runner
// does — many goroutines sharing one tracer — and is the test -race
// watches.
func TestConcurrentEmit(t *testing.T) {
	tr := NewCapped(1 << 10)
	const (
		workers = 8
		each    = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := tr.Gauge("g")
			for i := 0; i < each; i++ {
				tr.Emit(EvTLBMiss, uint64(i), 0, 0)
				tr.EmitSpan(EvSimBatch, tr.Start(), 1, 2, 3)
				tr.EmitPhase("p", tr.Start())
				tr.SetGauge(g, uint64(i))
				if i%100 == 0 {
					tr.Sample()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Count(EvTLBMiss); got != workers*each {
		t.Errorf("Count(EvTLBMiss) = %d, want %d", got, workers*each)
	}
	if got := tr.TotalEvents(); got != 3*workers*each {
		t.Errorf("TotalEvents = %d, want %d", got, 3*workers*each)
	}
	if stored, dropped := uint64(len(tr.Events())), tr.Dropped(); stored+dropped != 3*workers*each {
		t.Errorf("stored %d + dropped %d != emitted %d", stored, dropped, 3*workers*each)
	}
}

func TestKindNamesComplete(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if numKinds.String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

// TestEventBufferGrowsWithoutCopying records 1M events and bounds the
// bytes the tracer allocates to within 10% of the bytes it stores: the
// buffer grows in fixed blocks, so no stored event is ever copied into
// a larger array. Events must still return every event in order.
func TestEventBufferGrowsWithoutCopying(t *testing.T) {
	const n = 1 << 20
	tr := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < n; i++ {
		switch i % 3 {
		case 0:
			tr.Emit(EvBuddySplit, i, 0, 0)
		case 1:
			tr.EmitDur(EvWalkNative, 7, i, 0, 0)
		default:
			tr.EmitSpan(EvSimBatch, tr.Start(), i, 0, 0)
		}
	}
	runtime.ReadMemStats(&after)
	stored := uint64(n) * uint64(unsafe.Sizeof(Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(stored) {
		t.Fatalf("recording %d events (%d B) allocated %d B", n, stored, got)
	}
	evs := tr.Events()
	if len(evs) != n {
		t.Fatalf("Events() = %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.A != uint64(i) {
			t.Fatalf("event %d has A = %d", i, e.A)
		}
	}
}

// TestEventCapAcrossBlocks checks a cap that is not a multiple of the
// block length: exactly max events are stored, in order, and the rest
// are counted dropped.
func TestEventCapAcrossBlocks(t *testing.T) {
	const max = 2*eventBlockLen + 5
	tr := NewCapped(max)
	for i := uint64(0); i < max+100; i++ {
		tr.Emit(EvTLBMiss, i, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != max || tr.Dropped() != 100 || tr.Count(EvTLBMiss) != max+100 {
		t.Fatalf("stored %d, dropped %d, counted %d", len(evs), tr.Dropped(), tr.Count(EvTLBMiss))
	}
	for i, e := range evs {
		if e.A != uint64(i) {
			t.Fatalf("event %d has A = %d", i, e.A)
		}
	}
	if c := cap(tr.blocks[len(tr.blocks)-1]); c != 5 {
		t.Fatalf("last block capacity %d, want 5 (the cap's remainder)", c)
	}
}
