package check

import (
	"fmt"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/workloads"
)

// oracleAudit is the reference the fused frame pass must match error
// for error: the per-frame audit the fast engine replaced. It gathers
// one cache page at a time, expands pins one frame at a time, and per
// zone runs the buddy's free-list walk, the buddy's frame sweep as it
// used to run (each listed block's frames in list-walk order, then the
// free frames no block covers, in ascending order), the contigmap check
// on its own scratch, and then the merged sweep frame by frame —
// MapCount first, then the state switch — and the zone's free count.
// Zones run in index order, so the first zone's error wins.
func oracleAudit(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	a := &Auditor{}
	a.ensure(m)
	for _, k := range ks {
		for _, p := range k.Processes() {
			if err := a.auditProcess(m, p); err != nil {
				return fmt.Errorf("process %d: %w", p.ID, err)
			}
		}
		k.Cache.VisitResident(func(pages []addr.PFN) {
			for _, v := range pages {
				if v != 0 {
					rel := uint64(v - 1 - a.base)
					a.refs[rel]++
					a.span.set(rel)
				}
			}
		})
	}
	tbase := uint64(m.Frames.Base())
	for _, e := range pinned {
		for pfn := max(e.PFN, tbase); pfn < min(e.PFN+e.Pages, tbase+m.Frames.Len()); pfn++ {
			a.pins.set(pfn - uint64(a.base))
		}
	}
	for _, z := range m.Zones {
		if err := a.oracleZone(m, z); err != nil {
			return err
		}
	}
	return nil
}

func (a *Auditor) oracleZone(m *zone.Machine, z *zone.Zone) error {
	b := z.Buddy
	cover := make([]uint64, b.ScratchWords())
	if err := b.CheckFreeLists(cover); err != nil {
		return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
	}
	var listErr error
	b.VisitFreeBlocks(func(head addr.PFN, order int) {
		for pfn := head; pfn < head+addr.PFN(addr.OrderPages(order)) && listErr == nil; pfn++ {
			if s := m.Frames.Get(pfn).State; s != frame.Free {
				listErr = fmt.Errorf("zone %d: buddy: frame %d on free list but state %v", z.ID, pfn, s)
			}
		}
	})
	if listErr != nil {
		return listErr
	}
	fs := m.Frames.Slice(z.Base, z.Pages)
	for j := range fs {
		if fs[j].State == frame.Free && cover[j>>6]&(1<<(j&63)) == 0 {
			return fmt.Errorf("zone %d: buddy: frame %d free but not on any list", z.ID, z.Base+addr.PFN(j))
		}
	}
	if err := z.Contig.CheckInvariants(b); err != nil {
		return fmt.Errorf("zone %d: contigmap: %w", z.ID, err)
	}
	var free uint64
	for j := range fs {
		pfn := z.Base + addr.PFN(j)
		rel := uint64(pfn - a.base)
		f := &fs[j]
		r := a.refs[rel]
		if f.MapCount != r {
			return fmt.Errorf("frame %d: MapCount %d but %d live references", pfn, f.MapCount, r)
		}
		switch f.State {
		case frame.Free:
			free++
			if r != 0 || a.span.get(rel) {
				return fmt.Errorf("frame %d: free but referenced by a mapping or the page cache", pfn)
			}
			if a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but free (double free of a pin?)", pfn)
			}
		case frame.Allocated:
			orphan := r == 0 && !a.span.get(rel)
			if orphan && !a.pins.get(rel) {
				return fmt.Errorf("frame %d: allocated, unmapped, uncached, and not a declared pin (leaked frame)", pfn)
			}
			if !orphan && a.pins.get(rel) {
				return fmt.Errorf("frame %d: declared pinned but referenced by a mapping or the page cache", pfn)
			}
		case frame.Reserved:
			return fmt.Errorf("frame %d: Reserved state inside a zone (zone %d)", pfn, z.ID)
		}
	}
	if free != b.FreePages() {
		return fmt.Errorf("zone %d: frame table has %d free frames, buddy says %d", z.ID, free, b.FreePages())
	}
	return nil
}

// oracleFixture is the two-zone sharded fixture with everything the
// frame pass tells apart: zone 1's first MAX_ORDER block boot-pinned by
// its shard kernel, a 4 MiB THP-backed tenant region in zone 0 (huge
// leaves next to 4 KiB ones), and three 512 KiB files in the parent's
// page cache, the middle one dropped again. It returns the boot pins
// and the cached frames of the first file in file-page order.
func oracleFixture(t *testing.T) (*zone.Machine, []*osim.Kernel, []*workloads.Env, []Extent, []addr.PFN) {
	t.Helper()
	m, ks, envs := shardedFixture(t)
	ks[2].BootReserve(1)
	pinned := []Extent{{PFN: uint64(m.Zones[1].Base), Pages: addr.MaxOrderPages}}
	v, err := envs[0].MMap(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := envs[0].Populate(v); err != nil {
		t.Fatal(err)
	}
	var first []addr.PFN
	for i := 0; i < 3; i++ {
		f := ks[0].Cache.CreateFile(512 << 10)
		if err := ks[0].Cache.Read(f, 0, 512<<10); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 0:
			ks[0].Cache.VisitResident(func(pages []addr.PFN) {
				for _, v := range pages {
					first = append(first, v-1)
				}
			})
		case 1:
			ks[0].Cache.DropFile(f)
		}
	}
	return m, ks, envs, pinned, first
}

// hugeLeafHead returns the head frame of the first 2 MiB leaf any
// process maps.
func hugeLeafHead(t *testing.T, ks []*osim.Kernel) addr.PFN {
	t.Helper()
	for _, k := range ks {
		for _, p := range k.Processes() {
			var head addr.PFN
			found := false
			p.PT.Visit(func(l pagetable.Leaf) {
				if !found && l.Pages == addr.HugePages {
					head, found = l.PTE.PFN, true
				}
			})
			if found {
				return head
			}
		}
	}
	t.Fatal("fixture maps no huge leaf")
	return 0
}

// oracleCorruption is one single-fault corruption of an oracleFixture
// machine: it edits the machine and returns the pins to audit with.
type oracleCorruption func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent

var oracleFields = []struct {
	name    string
	corrupt oracleCorruption
}{
	{"state-next", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		f := m.Frames.Get(pfn)
		f.State = (f.State + 1) % 3
		return pinned
	}},
	{"state-prev", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		f := m.Frames.Get(pfn)
		f.State = (f.State + 2) % 3
		return pinned
	}},
	{"state-invalid", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		m.Frames.Get(pfn).State = 7
		return pinned
	}},
	{"mapcount-up", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		m.Frames.Get(pfn).MapCount++
		return pinned
	}},
	{"mapcount-down", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		m.Frames.Get(pfn).MapCount--
		return pinned
	}},
	{"pin-frame", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		return append(pinned, Extent{PFN: uint64(pfn), Pages: 1})
	}},
	{"unpin-frame", func(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
		// Split every pin around pfn, so a boot-pinned frame loses
		// its pin and nothing else changes.
		var out []Extent
		for _, e := range pinned {
			if uint64(pfn) < e.PFN || uint64(pfn) >= e.PFN+e.Pages {
				out = append(out, e)
				continue
			}
			if lo := uint64(pfn) - e.PFN; lo > 0 {
				out = append(out, Extent{PFN: e.PFN, Pages: lo})
			}
			if hi := e.PFN + e.Pages - uint64(pfn) - 1; hi > 0 {
				out = append(out, Extent{PFN: uint64(pfn) + 1, Pages: hi})
			}
		}
		return out
	}},
	{"free-behind-owner", freeBehindOwner},
}

// freeBehindOwner returns an allocated frame to the buddy without
// telling the mapping, cache or pin that holds it.
func freeBehindOwner(m *zone.Machine, pfn addr.PFN, pinned []Extent) []Extent {
	if m.Frames.Get(pfn).State == frame.Allocated {
		m.FreeBlock(pfn, 0)
	}
	return pinned
}

// checkAgainstOracle audits m three ways — a fresh Auditor, the pooled
// wrapper and the long-lived dirty Auditor a — and requires each to
// report exactly what oracleAudit reports. It returns that error.
func checkAgainstOracle(t *testing.T, a *Auditor, m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	t.Helper()
	want := oracleAudit(m, ks, pinned)
	for _, got := range []struct {
		how string
		err error
	}{
		{"fresh Auditor", NewAuditor(m).AuditKernels(m, ks, pinned)},
		{"AuditKernels", AuditKernels(m, ks, pinned)},
		{"reused Auditor", a.AuditKernels(m, ks, pinned)},
	} {
		if fmt.Sprint(got.err) != fmt.Sprint(want) {
			t.Fatalf("%s reported %v, oracle reported %v", got.how, got.err, want)
		}
	}
	return want
}

// TestAuditMatchesOracle corrupts one thing at a time on the two-zone
// fixture — a frame's State or MapCount, a pin, an allocated frame
// freed behind its owner's back (a cache page or a huge leaf's frame
// among them) — at frame offsets 0, 1, 63 and 64 and the last frame of
// each zone, at the same offsets inside a huge leaf and inside the
// first cached file, and requires the fused frame pass to report the
// oracle's exact error, or nil when the oracle does.
func TestAuditMatchesOracle(t *testing.T) {
	m, ks, _, pinned, cached := oracleFixture(t)
	if err := checkAgainstOracle(t, &Auditor{}, m, ks, pinned); err != nil {
		t.Fatalf("clean fixture failed the audit: %v", err)
	}

	type target struct {
		name string
		pfn  func(m *zone.Machine, ks []*osim.Kernel, cached []addr.PFN) addr.PFN
	}
	var targets []target
	offsets := []uint64{0, 1, 63, 64}
	for zi := range m.Zones {
		for _, off := range append(offsets, m.Zones[zi].Pages-1) {
			targets = append(targets, target{fmt.Sprintf("zone%d+%d", zi, off), func(m *zone.Machine, _ []*osim.Kernel, _ []addr.PFN) addr.PFN {
				return m.Zones[zi].Base + addr.PFN(off)
			}})
		}
	}
	for _, off := range append(offsets, addr.HugePages-1) {
		targets = append(targets, target{fmt.Sprintf("huge+%d", off), func(_ *zone.Machine, ks []*osim.Kernel, _ []addr.PFN) addr.PFN {
			return hugeLeafHead(t, ks) + addr.PFN(off)
		}})
	}
	for _, off := range append(offsets, uint64(len(cached)-1)) {
		targets = append(targets, target{fmt.Sprintf("cache+%d", off), func(_ *zone.Machine, _ []*osim.Kernel, cached []addr.PFN) addr.PFN {
			return cached[off]
		}})
	}

	reused := NewAuditor(m)
	failed := 0
	for _, tg := range targets {
		for _, fd := range oracleFields {
			t.Run(tg.name+"/"+fd.name, func(t *testing.T) {
				m, ks, _, pinned, cached := oracleFixture(t)
				pinned = fd.corrupt(m, tg.pfn(m, ks, cached), pinned)
				if checkAgainstOracle(t, reused, m, ks, pinned) != nil {
					failed++
				}
			})
		}
	}
	// Non-vacuity: most cases must be caught. The rest are no
	// corruption at all (unpinning an unpinned frame, pinning a pinned
	// one, freeing a free frame) or one the per-frame check lets pass
	// (an undefined State on an unlisted frame): 40 of 160 today.
	if total := len(targets) * len(oracleFields); failed < total*2/3 {
		t.Fatalf("only %d of %d corruptions were caught", failed, total)
	}
}

// FuzzAuditCorruption picks a frame, a field and a delta, corrupts the
// two-zone fixture there, and requires the fused frame pass to report
// exactly the oracle's error through a fresh, a pooled and a reused
// dirty Auditor. Its seeds are committed under testdata/fuzz.
func FuzzAuditCorruption(f *testing.F) {
	reused := &Auditor{}
	f.Fuzz(func(t *testing.T, sel uint32, field uint8, delta int32) {
		m, ks, _, pinned, _ := oracleFixture(t)
		pfn := m.Frames.Base() + addr.PFN(uint64(sel)%m.Frames.Len())
		fr := m.Frames.Get(pfn)
		switch field % 7 {
		case 0:
			fr.State += frame.State(delta)
		case 1:
			fr.MapCount += delta
		case 2:
			fr.BuddyOrder += int8(delta)
		case 3:
			fr.AllocOrder += int8(delta)
		case 4:
			fr.Cluster += uint32(delta)
		case 5:
			pinned = append(pinned, Extent{PFN: uint64(pfn), Pages: 1 + uint64(uint32(delta))%(2*addr.MaxOrderPages)})
		case 6:
			pinned = freeBehindOwner(m, pfn, pinned)
		}
		checkAgainstOracle(t, reused, m, ks, pinned)
	})
}
