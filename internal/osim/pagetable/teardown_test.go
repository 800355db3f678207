package pagetable

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem/addr"
)

// span is one VMA-like range of a random table: huge leaves only sit in
// 2 MiB regions wholly inside a span, as the kernel places them.
type span struct{ lo, hi addr.VirtAddr }

// buildRandom applies one seeded sequence of mappings, per-leaf unmaps
// (which leave emptied nodes attached) and contiguity bits to every
// table in ts, returning the spans it mapped into.
func buildRandom(seed int64, ts ...*Table) []span {
	rng := rand.New(rand.NewSource(seed))
	var spans []span
	// Start just below a 1 GiB boundary so runs cross PMD tables.
	va := addr.VirtAddr(0x10_0000_0000) - addr.VirtAddr(rng.Intn(1<<11))*addr.PageSize
	for n := 1 + rng.Intn(6); n > 0; n-- {
		pages := uint64(1 + rng.Intn(3*512))
		if rng.Intn(4) == 0 { // cross a 1 GiB (PMD table) boundary now and then
			va = va.Add(1 << pmdShift)
		}
		spans = append(spans, span{va, va.Add(pages * addr.PageSize)})
		va = va.Add((pages + uint64(rng.Intn(2048))) * addr.PageSize)
	}
	pfn := addr.PFN(1 << 20)
	each := func(fn func(t *Table)) {
		for _, t := range ts {
			fn(t)
		}
	}
	for _, s := range spans {
		dense := rng.Intn(2) == 0 // no holes or PFN breaks: long runs
		for v := s.lo; v < s.hi; {
			switch {
			case v.HugeAligned() && v.Add(addr.HugeSize) <= s.hi && rng.Intn(3) == 0:
				p := (pfn + addr.HugePages - 1) &^ (addr.HugePages - 1)
				each(func(t *Table) { t.Map2M(v, p, Writable) })
				pfn = p + addr.HugePages
				v = v.Add(addr.HugeSize)
			case !dense && rng.Intn(4) == 0: // hole
				v = v.Add(addr.PageSize)
			default:
				if !dense && rng.Intn(8) == 0 { // break physical contiguity
					pfn += addr.PFN(1 + rng.Intn(3))
				}
				p := pfn
				each(func(t *Table) { t.Map4K(v, p, Writable) })
				pfn++
				v = v.Add(addr.PageSize)
			}
		}
	}
	if rng.Intn(3) == 0 { // keep some tables free of pre-set bits
		return spans
	}
	var leaves []Leaf
	ts[0].Visit(func(l Leaf) { leaves = append(leaves, l) })
	for _, l := range leaves {
		switch rng.Intn(6) {
		case 0:
			each(func(t *Table) { t.Unmap(l.VA) })
		case 1:
			each(func(t *Table) { t.SetContig(l.VA, true) })
		}
	}
	return spans
}

// unmapLoop is the reference teardown: one root-to-leaf Unmap per base
// page of [lo, hi), skipping holes and stepping over each removed leaf.
func unmapLoop(t *Table, lo, hi addr.VirtAddr, fn func(Leaf)) {
	for va := lo; va < hi; {
		pte, pages, ok := t.Unmap(va)
		if !ok {
			va = va.Add(addr.PageSize)
			continue
		}
		fn(Leaf{VA: va, PTE: pte, Pages: pages})
		va = va.Add(pages * addr.PageSize)
	}
}

// checkLive asserts that every node's live count equals its populated
// slots.
func checkLive(t *testing.T, n *node, level int) {
	t.Helper()
	want := 0
	for i := 0; i < fanout; i++ {
		switch {
		case level == HugeLevel && n.huge[i], level == 0:
			if n.leaves[i].Present() {
				want++
			}
		case n.children[i] != nil:
			want++
			checkLive(t, n.children[i], level-1)
		}
	}
	if n.live != want {
		t.Fatalf("level-%d node live = %d, populated slots = %d", level, n.live, want)
	}
}

func checkFreeZero(t *testing.T, f *FreeList) {
	t.Helper()
	for i, n := range f.nodes {
		if *n != (node{}) {
			t.Fatalf("free-list node %d is not all-zero", i)
		}
	}
}

// TestUnmapRangeMatchesUnmapLoop tears random tables down span by span
// with UnmapRange and, on a clone, with the per-leaf Unmap loop, and
// requires the same observer events, the same leaves in the same order,
// the same counters, exact live counts, and an all-zero free list.
func TestUnmapRangeMatchesUnmapLoop(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		var fl FreeList
		var got Table
		fl.InitTable(&got, 4, 1)
		want := New()
		gotObs, wantObs := &recObserver{}, &recObserver{}
		got.AddObserver(gotObs)
		want.AddObserver(wantObs)
		spans := buildRandom(seed, &got, want)

		rand.New(rand.NewSource(seed)).Shuffle(len(spans), func(i, j int) {
			spans[i], spans[j] = spans[j], spans[i]
		})
		for _, s := range spans {
			var gotLeaves, wantLeaves []Leaf
			got.UnmapRange(s.lo, s.hi, func(l Leaf) { gotLeaves = append(gotLeaves, l) })
			unmapLoop(want, s.lo, s.hi, func(l Leaf) { wantLeaves = append(wantLeaves, l) })
			if !reflect.DeepEqual(gotLeaves, wantLeaves) {
				t.Fatalf("seed %d span %v-%v: leaves differ\n got %v\nwant %v", seed, s.lo, s.hi, gotLeaves, wantLeaves)
			}
			if !reflect.DeepEqual(gotObs.events, wantObs.events) {
				t.Fatalf("seed %d span %v-%v: observer events differ", seed, s.lo, s.hi)
			}
			if got.Mapped4K() != want.Mapped4K() || got.Mapped2M() != want.Mapped2M() ||
				got.ContigBits != want.ContigBits {
				t.Fatalf("seed %d: counters 4K/2M/contig = %d/%d/%d, want %d/%d/%d", seed,
					got.Mapped4K(), got.Mapped2M(), got.ContigBits,
					want.Mapped4K(), want.Mapped2M(), want.ContigBits)
			}
			checkLive(t, got.root, got.top)
			checkFreeZero(t, &fl)
		}
		if got.root.live != 0 {
			t.Fatalf("seed %d: root live = %d after every span was torn down", seed, got.root.live)
		}
		got.Release()
		checkFreeZero(t, &fl)
	}
}

// TestUnmapRangeTakesOverlappingHugeLeaf checks that a range starting
// inside a 2 MiB leaf removes that leaf, as a per-page loop's first
// Unmap would.
func TestUnmapRangeTakesOverlappingHugeLeaf(t *testing.T) {
	pt := New()
	huge := addr.VirtAddr(addr.HugeSize)
	pt.Map2M(huge, addr.HugePages, Writable)
	var got []Leaf
	pt.UnmapRange(huge.Add(addr.PageSize), huge.Add(addr.HugeSize), func(l Leaf) { got = append(got, l) })
	if len(got) != 1 || got[0].VA != huge || got[0].Pages != addr.HugePages || pt.Mapped2M() != 0 {
		t.Fatalf("UnmapRange from inside a huge leaf removed %v, Mapped2M = %d", got, pt.Mapped2M())
	}
}

// TestReleaseRecyclesNodes checks that a released table's nodes,
// including ones still holding leaves, come back zeroed and serve the
// next table, and that the released table refuses further use.
func TestReleaseRecyclesNodes(t *testing.T) {
	var fl FreeList
	var a Table
	fl.InitTable(&a, 4, 7)
	buildRandom(3, &a)
	a.Release()
	checkFreeZero(t, &fl)
	pooled := len(fl.nodes)
	if pooled < 4 {
		t.Fatalf("free list holds %d nodes after release, want the whole tree", pooled)
	}

	var b Table
	fl.InitTable(&b, 4, 8)
	ref := New()
	buildRandom(4, &b, ref)
	ref.Visit(func(l Leaf) {
		pte, level, _, ok := b.Walk(l.VA)
		if !ok || pte != l.PTE || (level == HugeLevel) != (l.Pages == 512) {
			t.Fatalf("recycled table: Walk(%v) = %+v/%d/%v, want %+v", l.VA, pte, level, ok, l.PTE)
		}
	})
	if len(fl.nodes) >= pooled {
		t.Fatalf("second table took no nodes from the list (%d -> %d)", pooled, len(fl.nodes))
	}

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "released table (owner 7)") {
			t.Fatalf("use after release: panic %q, want one naming owner 7", msg)
		}
	}()
	a.Walk(0x10_0000_0000)
}

// markContigRef is the reference protocol MarkContig must match: one
// root-to-leaf Lookup per backward step, bits set through SetContig.
func markContigRef(pt *Table, va addr.VirtAddr, threshold uint64) {
	pte, runPages, _ := pt.Lookup(va)
	var walked []addr.VirtAddr
	curVA, curPFN := va, pte.PFN
	met := false
	for curVA >= addr.PageSize {
		prev, pages, ok := pt.Lookup(curVA - addr.PageSize)
		if !ok || prev.PFN+addr.PFN(pages) != curPFN {
			break
		}
		leafVA := curVA - addr.VirtAddr(pages*addr.PageSize)
		if prev.Flags.Has(Contig) {
			met = true
			break
		}
		walked = append(walked, leafVA)
		runPages += pages
		curVA, curPFN = leafVA, prev.PFN
		if runPages >= threshold {
			break
		}
	}
	if !met && runPages < threshold {
		return
	}
	pt.SetContig(va, true)
	for _, w := range walked {
		pt.SetContig(w, true)
	}
}

// TestMarkContigMatchesReference marks leaves of random tables under
// several thresholds and requires the reference's exact Contig bits,
// ContigBits count and generation. Every leaf is marked in mapping
// order, as faults would, on odd seeds; on even seeds a random half is
// marked in random order, which leaves untagged runs longer than the
// threshold behind the marked leaf.
func TestMarkContigMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, threshold := range []uint64{1, 32, 100, 600} {
			got, want := New(), New()
			buildRandom(seed, got, want)
			var order []addr.VirtAddr
			want.Visit(func(l Leaf) { order = append(order, l.VA) })
			if seed%2 == 0 {
				rng := rand.New(rand.NewSource(seed))
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				order = order[:len(order)/2]
			}
			for _, va := range order {
				got.MarkContig(va, threshold)
				markContigRef(want, va, threshold)
				if got.ContigBits != want.ContigBits || got.Generation() != want.Generation() {
					t.Fatalf("seed %d threshold %d at %v: ContigBits/gen = %d/%d, want %d/%d",
						seed, threshold, va, got.ContigBits, got.Generation(), want.ContigBits, want.Generation())
				}
			}
			var gl, wl []Leaf
			got.Visit(func(l Leaf) { gl = append(gl, l) })
			want.Visit(func(l Leaf) { wl = append(wl, l) })
			if !reflect.DeepEqual(gl, wl) {
				t.Fatalf("seed %d threshold %d: leaf flags differ", seed, threshold)
			}
		}
	}
}

// TestRecycledCycleAllocatesNothing pins the steady state of churn: a
// table built from a warmed free list, mapped with 4 KiB and 2 MiB
// leaves, torn down by range and released allocates nothing.
func TestRecycledCycleAllocatesNothing(t *testing.T) {
	var fl FreeList
	var pt Table
	base := addr.VirtAddr(0x10_0000_0000)
	var freed uint64
	drop := func(l Leaf) { freed += l.Pages }
	cycle := func() {
		fl.InitTable(&pt, 4, 1)
		for i := uint64(0); i < 64; i++ {
			pt.Map4K(base.Add(i*addr.PageSize), addr.PFN(i), Writable)
		}
		pt.Map2M(base.Add(addr.HugeSize), addr.HugePages, Writable)
		pt.UnmapRange(base, base.Add(2*addr.HugeSize), drop)
		pt.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("warmed table cycle allocates %v times, want 0", n)
	}
	// One cycle above, AllocsPerRun's warm-up run, then its 50.
	if freed != 52*(64+addr.HugePages) {
		t.Fatalf("teardown handed back %d pages over 52 cycles", freed)
	}
}

// BenchmarkUnmapRange tears down a VMA-shaped range (1024 4 KiB leaves
// with holes, then two 2 MiB leaves) from a recycled table; each
// iteration maps the range first.
func BenchmarkUnmapRange(b *testing.B) {
	var fl FreeList
	var pt Table
	fl.InitTable(&pt, 4, 1)
	base := addr.VirtAddr(0x10_0000_0000)
	end := base.Add(1536 * addr.PageSize).HugeUp().Add(2 * addr.HugeSize)
	drop := func(Leaf) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for p := uint64(0); p < 1536; p++ {
			if p%3 != 2 {
				pt.Map4K(base.Add(p*addr.PageSize), addr.PFN(p), Writable)
			}
		}
		hb := base.Add(1536 * addr.PageSize).HugeUp()
		pt.Map2M(hb, 0, Writable)
		pt.Map2M(hb.Add(addr.HugeSize), addr.HugePages, Writable)
		pt.UnmapRange(base, end, drop)
	}
}
