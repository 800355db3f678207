package check

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
	"repro/internal/mem/contigmap"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
)

// bitset is a packed per-frame flag array, one bit per PFN relative to
// the audited frame table's base.
type bitset []uint64

func (b bitset) set(i uint64)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) get(i uint64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// setRange sets bits [i, i+n), whole words at a time in the interior.
func (b bitset) setRange(i, n uint64) {
	for ; n > 0 && i&63 != 0; n-- {
		b.set(i)
		i++
	}
	for ; n >= 64; n -= 64 {
		b[i>>6] = ^uint64(0)
		i += 64
	}
	for ; n > 0; n-- {
		b.set(i)
		i++
	}
}

// Auditor is the reusable audit arena: dense PFN-indexed scratch state
// sized to the audited machine's frame table, allocated once and
// cleared word-at-a-time per audit. Aging campaigns hold one Auditor
// for a whole run; the package-level Audit/AuditKernels wrappers borrow
// one from an internal pool, so one-shot callers get the same engine
// without managing a lifetime.
//
// An Auditor is NOT safe for concurrent use; each concurrent audit
// needs its own. The machine handed to successive audits may differ —
// the arena regrows to the largest frame table seen.
type Auditor struct {
	// base is the PFN of arena index 0: the audited table's first PFN
	// rounded down to a 64-frame word, so every MAX_ORDER-aligned zone
	// starts on a word boundary of span and pins. n is the number of
	// arena frames that reach the table's end (per audit).
	base addr.PFN
	n    uint64
	refs []int32 // per-frame gathered reference counts
	span bitset  // frame is inside a leaf extent or cache-resident
	pins bitset  // frame is inside a declared pinned extent

	// cover and contig hold, per zone index, the buddy's free-list
	// coverage (one bit per zone frame) and the contiguity map's
	// membership scratch (one bit per MAX_ORDER block). Concurrently
	// checked zones never share scratch words, and the contigmap check
	// leaves the coverage intact for the frame pass.
	cover  [][]uint64
	contig [][]uint64

	// perVMA accumulates leaf pages per VMA for one process at a time;
	// it is tiny (VMAs, not frames) and reused across processes.
	perVMA map[*vma.VMA]uint64

	// m is the machine under audit while its zones are checked. workers
	// holds one prebuilt zone worker per zone index: a go statement
	// with no arguments allocates nothing, so the fan-out stays off the
	// heap once warm. errs and wg carry the per-zone results; errs is
	// indexed by zone position so error selection is deterministic.
	m       *zone.Machine
	workers []func()
	errs    []error
	wg      sync.WaitGroup
}

// NewAuditor returns an Auditor pre-sized to m's frame table. Campaigns
// that audit the same machine repeatedly should construct one and reuse
// it; a warm Auditor audits without touching the heap.
func NewAuditor(m *zone.Machine) *Auditor {
	a := &Auditor{}
	a.ensure(m)
	return a
}

// ensure grows the arena to cover m and clears the per-audit state.
func (a *Auditor) ensure(m *zone.Machine) {
	tb := m.Frames.Base()
	a.base = tb &^ 63
	a.n = uint64(tb-a.base) + m.Frames.Len()
	words := (a.n + 63) / 64
	if uint64(len(a.refs)) < a.n {
		a.refs = make([]int32, a.n)
		a.span = make(bitset, words)
		a.pins = make(bitset, words)
	}
	clear(a.refs[:a.n])
	clear(a.span[:words])
	clear(a.pins[:words])
	if len(a.cover) < len(m.Zones) {
		a.cover = append(a.cover, make([][]uint64, len(m.Zones)-len(a.cover))...)
		a.contig = append(a.contig, make([][]uint64, len(m.Zones)-len(a.contig))...)
	}
	if len(a.errs) < len(m.Zones) {
		a.errs = make([]error, len(m.Zones))
	}
	for i := len(a.workers); i < len(m.Zones); i++ {
		a.workers = append(a.workers, func() {
			defer a.wg.Done()
			a.errs[i] = a.zoneCheck(a.m.Zones[i], i)
		})
	}
	if a.perVMA == nil {
		a.perVMA = make(map[*vma.VMA]uint64)
	}
}

// Audit is the single-kernel whole-machine audit; see the package-level
// Audit for the contract.
func (a *Auditor) Audit(k *osim.Kernel, pinned []Extent) error {
	return a.AuditKernels(k.Machine, []*osim.Kernel{k}, pinned)
}

// AuditKernels runs the deep cross-layer audit over m using this
// Auditor's arena; see the package-level AuditKernels for the contract.
//
// The pass structure is: (1) serially gather every software reference
// the kernels hold on physical frames into the flat refs/span arrays —
// per-process translation/VMA/RSS checks run inline here; (2) expand
// the declared pinned extents into a bitset; (3) fan the per-zone work
// (zoneCheck) out across one goroutine per zone. Zones are disjoint
// frame ranges and the gathered arrays are read-only by then, so the
// fan-out is race-free; errors are selected in zone-index order,
// keeping multi-error machines deterministic.
func (a *Auditor) AuditKernels(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	if err := a.gather(m, ks, pinned); err != nil {
		return err
	}
	a.m = m
	errs := a.errs[:len(m.Zones)]
	if len(m.Zones) == 1 {
		errs[0] = a.zoneCheck(m.Zones[0], 0)
	} else {
		a.wg.Add(len(m.Zones))
		for i := range m.Zones {
			go a.workers[i]()
		}
		a.wg.Wait()
	}
	a.m = nil
	for i := range errs {
		if errs[i] != nil {
			err := errs[i]
			clear(errs)
			return err
		}
	}
	return nil
}

// gather resets the arena for m and fills it: every reference the
// kernels' software structures hold on physical frames — page-table
// leaves (the leaf head frame carries one MapCount per referencing
// leaf; interior frames of a huge leaf carry none but are spanned) and
// page-cache residency (the cache owns one reference per cached page) —
// plus the declared pinned extents.
func (a *Auditor) gather(m *zone.Machine, ks []*osim.Kernel, pinned []Extent) error {
	a.ensure(m)
	refs, span, base := a.refs, a.span, a.base
	for _, k := range ks {
		for _, p := range k.Processes() {
			if err := a.auditProcess(m, p); err != nil {
				return fmt.Errorf("process %d: %w", p.ID, err)
			}
		}
		k.Cache.VisitResident(func(pages []addr.PFN) {
			// Readahead places file pages in runs, so the span word
			// being built stays in a register until the run leaves it.
			var word, mask uint64
			for _, v := range pages {
				if v != 0 {
					rel := uint64(v - 1 - base)
					refs[rel]++
					if rel>>6 != word {
						span[word] |= mask
						word, mask = rel>>6, 0
					}
					mask |= 1 << (rel & 63)
				}
			}
			span[word] |= mask
		})
	}

	tbase := uint64(m.Frames.Base())
	tend := tbase + m.Frames.Len()
	for _, e := range pinned {
		// Clamp to the table: an extent outside it can never match a
		// swept frame.
		lo, hi := max(e.PFN, tbase), min(e.PFN+e.Pages, tend)
		if lo < hi {
			a.pins.setRange(lo-uint64(a.base), hi-lo)
		}
	}
	return nil
}

// zoneCheck runs one zone's checks in three steps: the buddy free-list
// walk (structure, plus the coverage bitset it records), the
// contiguity-map check on its own scratch, then framePass — one pass
// over the zone's frame records.
func (a *Auditor) zoneCheck(z *zone.Zone, i int) error {
	b := z.Buddy
	if len(a.cover[i]) < b.ScratchWords() {
		a.cover[i] = make([]uint64, b.ScratchWords())
	}
	if err := b.CheckFreeLists(a.cover[i]); err != nil {
		return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
	}
	if len(a.contig[i]) < contigmap.ScratchWords(b) {
		a.contig[i] = make([]uint64, contigmap.ScratchWords(b))
	}
	if err := z.Contig.CheckInvariantsScratch(b, a.contig[i]); err != nil {
		return fmt.Errorf("zone %d: contigmap: %w", z.ID, err)
	}
	return a.framePass(z, a.cover[i])
}

// framePass checks every frame of z against the gathered state, 64
// frames at a time. Per frame it asks, in this order:
//
//  1. coverage: the frame is on a buddy free list exactly when its
//     State is Free (the buddy's own frame sweep, reported with the
//     "buddy:" prefix);
//  2. MapCount equals the gathered reference count;
//  3. state: a Free frame is unreferenced, unspanned and unpinned; an
//     Allocated frame is a declared pin exactly when nothing references
//     or spans it (an unpinned orphan is leaked memory, a pinned
//     non-orphan a double use of a pin); no frame is Reserved.
//
// The word test expects the state the coverage implies — Free where
// covered, Allocated elsewhere. A word that is all covered or all
// uncovered only needs every frame to share that one State, which the
// loop tracks as a running OR and AND of the states; a mixed word is
// compared frame by frame (statesMatch). Every frame with references is
// also spanned (gather sets both), so a word with no span bit has no
// references and its MapCounts must all be zero: the refs array is
// only read under a span. A word that fails is re-examined frame by
// frame through checkFrame, so the reported error is the lowest failing
// frame of the zone, worded as the per-frame check words it. After the
// frames, the zone's Free count must equal the buddy's free-page
// counter.
func (a *Auditor) framePass(z *zone.Zone, cover []uint64) error {
	fs := a.m.Frames.Slice(z.Base, z.Pages)
	rel0 := uint64(z.Base - a.base)
	refs := a.refs[rel0 : rel0+z.Pages]
	span := a.span[rel0>>6:]
	pins := a.pins[rel0>>6:]
	var free int
	// Zones are whole MAX_ORDER blocks, so every word is full.
	for w, c := range cover[:z.Pages>>6] {
		f64 := (*[64]frame.Frame)(fs[w<<6:])
		sp, pn := span[w], pins[w]
		r64 := &noRefs
		if sp != 0 {
			r64 = (*[64]int32)(refs[w<<6:])
		}
		or, and, drift := scanWord(f64, r64)
		var states bool
		switch c {
		case ^uint64(0):
			states = or == frame.Free && and == frame.Free
		case 0:
			states = or == frame.Allocated && and == frame.Allocated
		default:
			states = statesMatch(f64, c)
		}
		if !states || drift != 0 || c&(sp|pn) != 0 || ^c&^(sp^pn) != 0 {
			if err := a.wordError(z, cover, fs, uint64(w)); err != nil {
				return err
			}
		}
		free += bits.OnesCount64(c)
	}
	if uint64(free) != z.Buddy.FreePages() {
		return fmt.Errorf("zone %d: frame table has %d free frames, buddy says %d", z.ID, free, z.Buddy.FreePages())
	}
	return nil
}

// noRefs stands in for the refs of a word no gathered extent spans; it
// is only ever read.
var noRefs [64]int32

// scanWord reduces one word of frames to the OR and the AND of their
// States and the OR of MapCount ^ refs over the word, which is zero
// exactly when every MapCount equals its gathered count. It is kept out
// of line: inlined into framePass, whose loop keeps many values live,
// the accumulators were spilled to the stack on every frame.
//
//go:noinline
func scanWord(f64 *[64]frame.Frame, r64 *[64]int32) (or, and frame.State, drift int32) {
	and = ^frame.State(0)
	for j := range f64 {
		or |= f64[j].State
		and &= f64[j].State
		drift |= f64[j].MapCount ^ r64[j]
	}
	return or, and, drift
}

// statesMatch reports whether frame j of f64 is Free where bit j of
// cover is set and Allocated where it is clear.
func statesMatch(f64 *[64]frame.Frame, cover uint64) bool {
	for j := range f64 {
		want := frame.Allocated
		if cover>>j&1 != 0 {
			want = frame.Free
		}
		if f64[j].State != want {
			return false
		}
	}
	return true
}

// wordError re-examines the 64 frames of a word that failed framePass's
// word test and returns the first frame's error. It returns nil only
// for a word whose frames hold a State outside Free, Allocated and
// Reserved, which the per-frame check lets pass.
func (a *Auditor) wordError(z *zone.Zone, cover []uint64, fs []frame.Frame, w uint64) error {
	for j := w << 6; j < w<<6+64; j++ {
		if err := a.checkFrame(z, cover, &fs[j], j); err != nil {
			return err
		}
	}
	return nil
}

// checkFrame is framePass's test for the single frame f at index j of
// zone z, in the order framePass documents.
func (a *Auditor) checkFrame(z *zone.Zone, cover []uint64, f *frame.Frame, j uint64) error {
	pfn := z.Base + addr.PFN(j)
	if err := buddy.ListedStateError(pfn, cover[j>>6]&(1<<(j&63)) != 0, f.State); err != nil {
		return fmt.Errorf("zone %d: buddy: %w", z.ID, err)
	}
	rel := uint64(pfn - a.base)
	r := a.refs[rel]
	if f.MapCount != r {
		return fmt.Errorf("frame %d: MapCount %d but %d live references", pfn, f.MapCount, r)
	}
	orphan := r == 0 && !a.span.get(rel)
	switch f.State {
	case frame.Free:
		if !orphan {
			return fmt.Errorf("frame %d: free but referenced by a mapping or the page cache", pfn)
		}
		if a.pins.get(rel) {
			return fmt.Errorf("frame %d: declared pinned but free (double free of a pin?)", pfn)
		}
	case frame.Allocated:
		if orphan && !a.pins.get(rel) {
			return fmt.Errorf("frame %d: allocated, unmapped, uncached, and not a declared pin (leaked frame)", pfn)
		}
		if !orphan && a.pins.get(rel) {
			return fmt.Errorf("frame %d: declared pinned but referenced by a mapping or the page cache", pfn)
		}
	case frame.Reserved:
		// Zone frames are only ever Free or Allocated (boot
		// reservations go through Buddy.Reserve, which allocates);
		// Reserved marks frames outside any zone.
		return fmt.Errorf("frame %d: Reserved state inside a zone (zone %d)", pfn, z.ID)
	}
	return nil
}

// auditProcess checks one process's translation/VMA/RSS accounting and
// accumulates its frame references into the arena. m is the union
// machine, which may be wider than the process's own kernel's view.
func (a *Auditor) auditProcess(m *zone.Machine, p *osim.Process) error {
	perVMA := a.perVMA
	clear(perVMA)
	var total uint64
	var bad error
	p.PT.Visit(func(l pagetable.Leaf) {
		total += l.Pages
		if !m.Frames.Contains(l.PTE.PFN) {
			if bad == nil {
				bad = fmt.Errorf("leaf %s maps PFN %d outside the machine", l.VA, l.PTE.PFN)
			}
			return
		}
		rel := uint64(l.PTE.PFN - a.base)
		a.refs[rel]++
		n := l.Pages
		if max := a.n - rel; n > max {
			// A huge leaf overhanging the table end spans only the
			// frames that exist, matching the sweep's reach.
			n = max
		}
		a.span.setRange(rel, n)
		if bad != nil {
			return
		}
		v := p.VMAs.Find(l.VA)
		if v == nil {
			bad = fmt.Errorf("leaf %s mapped outside any VMA", l.VA)
			return
		}
		if end := l.VA.Add(l.Pages * addr.PageSize); end > v.End {
			bad = fmt.Errorf("leaf %s (%d pages) overhangs its VMA end %s", l.VA, l.Pages, v.End)
			return
		}
		perVMA[v] += l.Pages
	})
	if bad != nil {
		return bad
	}
	if total != p.PT.MappedPages() {
		return fmt.Errorf("leaf sweep counts %d pages, MappedPages says %d", total, p.PT.MappedPages())
	}
	if total != p.RSSPages {
		return fmt.Errorf("page table maps %d pages but RSS charges %d", total, p.RSSPages)
	}
	var vmaErr error
	p.VMAs.Visit(func(v *vma.VMA) {
		if vmaErr == nil && perVMA[v] != v.MappedPages {
			vmaErr = fmt.Errorf("VMA %s-%s: MappedPages %d but %d leaf pages inside it", v.Start, v.End, v.MappedPages, perVMA[v])
		}
		delete(perVMA, v)
	})
	if vmaErr != nil {
		return vmaErr
	}
	if len(perVMA) != 0 {
		return fmt.Errorf("%d leaf-bearing VMAs missing from the VMA set", len(perVMA))
	}
	return nil
}
