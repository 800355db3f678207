package osim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem/addr"
)

// TestExitedProcessTablePanics pins the use-after-exit contract: once a
// process exits, its table's nodes go back to the kernel's list and may
// serve another process, so touching, translating or walking through
// the exited process must panic naming it rather than read them.
func TestExitedProcessTablePanics(t *testing.T) {
	k := newKernel(t, 16, CAPolicy{})
	p := k.NewProcess(0)
	v, err := p.MMap(16 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, p, v.Start, v.Size(), addr.PageSize)
	p.Exit()

	// The next process lays its VMA out at the same address and is
	// built from the nodes p returned.
	q := k.NewProcess(0)
	qv, err := q.MMap(16 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, q, qv.Start, qv.Size(), addr.PageSize)

	want := fmt.Sprintf("owner %d)", p.ID)
	for name, use := range map[string]func(){
		"TouchAt":   func() { p.TouchAt(v, v.Start, false) },
		"Translate": func() { p.Translate(v.Start) },
		"Walk":      func() { p.PT.Walk(v.Start) },
		"Fork":      func() { p.Fork() },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
					t.Errorf("%s after exit: panic %q, want one naming %q", name, msg, want)
				}
			}()
			use()
		}()
	}
	if _, ok := q.Translate(qv.Start); !ok {
		t.Fatal("the live process lost its mapping")
	}
}

// TestCAContigMarkingAllocatesNothing pins the contiguity-bit protocol's
// backward walk, run after every CA fault, at zero allocations. The
// 24-page run stays below the default threshold, so the walk covers the
// whole run and tags nothing, staying the same on every call.
func TestCAContigMarkingAllocatesNothing(t *testing.T) {
	k := newKernel(t, 16, CAPolicy{})
	k.THPEnabled = false
	p := k.NewProcess(0)
	v, err := p.MMap(48 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	touchRange(t, p, v.Start, 24*addr.PageSize, addr.PageSize)
	first, _ := p.Translate(v.Start)
	last := v.Start.Add(23 * addr.PageSize)
	if pa, _ := p.Translate(last); pa != first+23*addr.PageSize {
		t.Fatal("CA did not place the 24 pages as one physical run")
	}
	mark := func() { p.PT.MarkContig(last, k.ContigThresholdPages) }
	if n := testing.AllocsPerRun(100, mark); n != 0 {
		t.Fatalf("contiguity marking allocates %v times per fault, want 0", n)
	}
	if p.PT.ContigBits != 0 {
		t.Fatalf("ContigBits = %d below the threshold", p.PT.ContigBits)
	}
}

// TestWarmProcessLifetimeAllocs pins the memory cost of a process
// lifetime once the kernel is warm (BenchmarkProcessChurn's shape:
// mmap, fault in 1024 pages, munmap, exit). Page-table nodes are
// recycled and fault latencies land in a histogram of a few buckets, so
// a cycle allocates little more than the process and its VMA; a
// per-fault latency log alone would add 8 KiB. Every cycle must also
// charge the same faults, latencies and clock time and free every frame.
func TestWarmProcessLifetimeAllocs(t *testing.T) {
	k := newKernel(t, 64, CAPolicy{})
	k.THPEnabled = false
	cycle := func() {
		p := k.NewProcess(0)
		v, err := p.MMap(1024 * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		touchRange(t, p, v.Start, v.Size(), addr.PageSize)
		p.MUnmap(v)
		p.Exit()
	}
	for i := 0; i < 5; i++ {
		cycle()
	}
	clock0 := k.Clock
	cycle()
	perCycle := k.Clock - clock0
	faults0, lats0 := k.Stats.TotalFaults(), len(k.Stats.FaultLatencies.Buckets())

	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 2<<10 {
		t.Fatalf("a warm process lifetime allocates %d bytes, want under 2 KiB", per)
	}

	if got := k.Clock - clock0 - perCycle; got != cycles*perCycle {
		t.Fatalf("%d cycles advanced the clock by %d, want %d", cycles, got, cycles*perCycle)
	}
	if got := k.Stats.TotalFaults() - faults0; got != cycles*1024 {
		t.Fatalf("%d cycles took %d faults, want %d", cycles, got, cycles*1024)
	}
	if got := k.Stats.FaultLatencies.Count(); got != k.Stats.TotalFaults() {
		t.Fatalf("latency histogram holds %d faults, kernel took %d", got, k.Stats.TotalFaults())
	}
	if got := len(k.Stats.FaultLatencies.Buckets()); got != lats0 {
		t.Fatalf("warm cycles added latency buckets: %d, was %d", got, lats0)
	}
	if k.Machine.FreePages() != k.Machine.TotalPages() {
		t.Fatalf("leak: free %d of %d", k.Machine.FreePages(), k.Machine.TotalPages())
	}
}

// BenchmarkProcessChurn is one tenant lifetime under CA paging with 4
// KiB faults: create, mmap 1024 pages, populate, munmap, exit.
func BenchmarkProcessChurn(b *testing.B) {
	k := newKernel(b, 64, CAPolicy{})
	k.THPEnabled = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := k.NewProcess(0)
		v, err := p.MMap(1024 * addr.PageSize)
		if err != nil {
			b.Fatal(err)
		}
		for va := v.Start; va < v.End; va += addr.PageSize {
			if _, err := p.Touch(va, true); err != nil {
				b.Fatal(err)
			}
		}
		p.MUnmap(v)
		p.Exit()
	}
}
