package tlb

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/trace"
)

func TestColdMissThenHit(t *testing.T) {
	tl := New(1536, 6)
	va := addr.VirtAddr(0x1000)
	if tl.Lookup(va) {
		t.Fatal("cold lookup should miss")
	}
	tl.Insert(va, false)
	if !tl.Lookup(va) {
		t.Fatal("hit expected after insert")
	}
	if tl.Lookups() != 2 || tl.Misses() != 1 {
		t.Fatalf("counters = %d/%d", tl.Lookups(), tl.Misses())
	}
	if tl.MissRatio() != 0.5 {
		t.Fatalf("ratio = %f", tl.MissRatio())
	}
}

func TestHugeEntryCoversRegion(t *testing.T) {
	tl := New(1536, 6)
	base := addr.VirtAddr(8 * addr.HugeSize)
	tl.Insert(base, true)
	// Any address within the 2 MiB region hits.
	for _, off := range []uint64{0, addr.PageSize, addr.HugeSize - 1} {
		if !tl.Lookup(base.Add(off)) {
			t.Fatalf("huge entry should cover +%d", off)
		}
	}
	// Outside the region misses.
	if tl.Lookup(base.Add(addr.HugeSize)) {
		t.Fatal("adjacent region should miss")
	}
}

func Test4KEntryDoesNotCoverNeighbour(t *testing.T) {
	tl := New(64, 4)
	tl.Insert(0x1000, false)
	if tl.Lookup(0x2000) {
		t.Fatal("4K entry must not cover the next page")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// 4 entries, 4 ways: one set. Insert 4, touch the first, insert a
	// 5th: the LRU victim must be the untouched second entry.
	tl := New(4, 4)
	vas := []addr.VirtAddr{0x1000, 0x2000, 0x3000, 0x4000}
	for _, va := range vas {
		tl.Insert(va, false)
	}
	if !tl.Lookup(vas[0]) {
		t.Fatal("miss on resident entry")
	}
	tl.Insert(0x9000, false)
	if !tl.Lookup(vas[0]) {
		t.Fatal("recently used entry evicted")
	}
	if tl.Lookup(vas[1]) {
		t.Fatal("LRU entry not evicted")
	}
}

func TestCapacityMissBehaviour(t *testing.T) {
	// Working set larger than the TLB produces a high miss ratio;
	// smaller working set after warm-up hits ~always.
	tl := New(64, 4)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1024; i++ {
			va := addr.VirtAddr(i) << addr.PageShift
			if !tl.Lookup(va) {
				tl.Insert(va, false)
			}
		}
	}
	if tl.MissRatio() < 0.9 {
		t.Fatalf("thrashing working set ratio = %f", tl.MissRatio())
	}
	tl.ResetStats()
	for round := 0; round < 10; round++ {
		for i := 0; i < 32; i++ {
			va := addr.VirtAddr(i) << addr.PageShift
			if !tl.Lookup(va) {
				tl.Insert(va, false)
			}
		}
	}
	if tl.MissRatio() > 0.2 {
		t.Fatalf("resident working set ratio = %f", tl.MissRatio())
	}
}

func TestFlush(t *testing.T) {
	tl := New(64, 4)
	tl.Insert(0x1000, false)
	tl.Flush()
	if tl.Lookup(0x1000) {
		t.Fatal("hit after flush")
	}
}

func TestGeometryRounding(t *testing.T) {
	// 6-way 1536 entries -> 256 sets (power of two) must not panic.
	New(1536, 6)
	// Non-power-of-two set count rounds down.
	tl := New(48, 4) // 12 sets -> rounds to 8, ways raised to 6
	if tl.nsets != 8 {
		t.Fatalf("nsets = %d, want 8", tl.nsets)
	}
	// Regression: rounding the set count down used to silently shrink
	// the structure to 32 entries; the raised associativity preserves
	// the requested capacity.
	if tl.Entries() != 48 {
		t.Fatalf("entries = %d, want 48", tl.Entries())
	}
	if tl.ways != 6 {
		t.Fatalf("ways = %d, want 6", tl.ways)
	}
	if got := New(1536, 6).Entries(); got != 1536 {
		t.Fatalf("power-of-two geometry changed: entries = %d, want 1536", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry should panic")
		}
	}()
	New(5, 4)
}

// topVA is the last byte of the 48-bit virtual address space: its page
// numbers are the widest tags a key must hold.
const topVA = addr.VirtAddr(1<<48 - 1)

// TestPageSizesDoNotAlias checks that a 4K entry and a 2M entry whose
// page numbers are numerically equal never hit for each other, from
// the bottom of the address space to its top.
func TestPageSizesDoNotAlias(t *testing.T) {
	for _, tag := range []uint64{5, uint64(topVA) >> addr.HugeShift} {
		small := addr.VirtAddr(tag << addr.PageShift) // 4K tag == tag
		huge := addr.VirtAddr(tag << addr.HugeShift)  // 2M tag == tag

		tl := New(1536, 6)
		tl.Insert(huge, true)
		if !tl.Lookup(huge) {
			t.Fatalf("tag %#x: resident 2M entry missed", tag)
		}
		tl.Insert(0, false) // keep the 4K probe live
		if tl.Lookup(small) {
			t.Fatalf("tag %#x: 4K lookup hit the 2M entry with the same tag", tag)
		}

		tl = New(1536, 6)
		tl.Insert(small, false)
		tl.Insert(huge+addr.HugeSize, true) // keep the 2M probe live
		if tl.Lookup(huge) {
			t.Fatalf("tag %#x: 2M lookup hit the 4K entry with the same tag", tag)
		}
		if !tl.Lookup(small) {
			t.Fatalf("tag %#x: resident 4K entry missed", tag)
		}
	}
	tl := New(64, 4)
	top4K := topVA &^ (addr.PageSize - 1)
	tl.Insert(top4K, false)
	if !tl.Lookup(topVA) || tl.Lookup(top4K-addr.PageSize) {
		t.Fatal("top 4K page of the 48-bit range mis-keyed")
	}
}

// TestEvictEventArgs checks that an eviction reports the victim's page
// number and size — unpacked from its key — as the tlb.evict
// arguments (tag, huge), for tags up to the top of the 48-bit range.
func TestEvictEventArgs(t *testing.T) {
	tr := trace.New()
	tl := New(2, 2) // one set: every insert past two evicts the LRU way
	tl.SetTracer(tr)
	ins := []struct {
		va   addr.VirtAddr
		huge bool
	}{
		{topVA, false},
		{topVA, true},
		{0x1000, false},  // evicts the top 4K page
		{0x200000, true}, // evicts the top 2M page
		{0x3000, false},  // evicts 0x1000
	}
	for _, in := range ins {
		tl.Insert(in.va, in.huge)
	}
	want := [][2]uint64{
		{uint64(topVA) >> addr.PageShift, 0},
		{uint64(topVA) >> addr.HugeShift, 1},
		{1, 0},
	}
	var got [][2]uint64
	for _, e := range tr.Events() {
		if e.Kind == trace.EvTLBEvict {
			got = append(got, [2]uint64{e.A, e.B})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("evictions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("eviction %d = (tag %#x, huge %d), want (%#x, %d)", i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}

// BenchmarkTLBLookup measures Lookup on a warm TLB over a working set
// that fits it: 4K-only (one probe per lookup), mixed 4K+2M (the 2M
// probe runs after each 4K probe misses on half the set), and the
// paper's 1536-entry 6-way geometry. Each variant reports 0 allocs/op.
func BenchmarkTLBLookup(b *testing.B) {
	for _, bc := range []struct {
		name          string
		entries, ways int
		mixed         bool
	}{
		{"4k", 32, 4, false},
		{"mixed", 32, 4, true},
		{"paper-1536x6", 1536, 6, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tl := New(bc.entries, bc.ways)
			vas := make([]addr.VirtAddr, tl.Entries())
			for i := range vas {
				huge := bc.mixed && i%2 == 1
				if huge {
					vas[i] = addr.VirtAddr(uint64(i) * addr.HugeSize)
				} else {
					vas[i] = addr.VirtAddr(uint64(i) * addr.PageSize)
				}
				tl.Insert(vas[i], huge)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				tl.Lookup(vas[j])
				if j++; j == len(vas) {
					j = 0
				}
			}
		})
	}
}
