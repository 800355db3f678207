package translation

import (
	"runtime"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/workloads"
)

func nativeEnv(t testing.TB) *workloads.Env {
	t.Helper()
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{
		16 * addr.MaxOrderPages, 16 * addr.MaxOrderPages,
	}})
	k := osim.NewKernel(m, osim.CAPolicy{})
	return workloads.NewNativeEnv(k, 0)
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := New("no-such", nativeEnv(t), Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	be, err := New("", nativeEnv(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if be.Name() != BackendPaged {
		t.Fatalf("empty name resolved to %q, want paged", be.Name())
	}
}

// TestDSFallbackAgreement is the Direct-Segments property: outside the
// segment's coverage the backend *is* the paged backend — Resolve must
// agree with a reference paged backend on ok, physical address, and
// cycle cost for every probe — while covered addresses translate to
// the same physical address by base+offset at zero cost. The layout
// forces all three probe classes (covered, mapped-but-uncovered,
// unmapped), and the second half unmaps the segment's backing VMA so
// agreement must also hold across the dirty/rebuild transition.
func TestDSFallbackAgreement(t *testing.T) {
	env := nativeEnv(t)
	env.Kernel.THPEnabled = false

	// VMA A: fully populated — under CA placement this yields one large
	// contiguous mapping, which becomes the segment. VMA B: every third
	// page touched, so its mappings stay small and uncovered.
	a, err := env.MMap(512 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(a); err != nil {
		t.Fatal(err)
	}
	b, err := env.MMap(256 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i += 3 {
		if err := env.Touch(b.Start.Add(i*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}

	dsBE, err := New(BackendDS, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dsBE.Close()
	pagedBE, err := New(BackendPaged, env, Config{NoWalkCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pagedBE.Close()
	d := dsBE.(*dsBackend)

	var probes []addr.VirtAddr
	for i := uint64(0); i < 512; i += 7 {
		probes = append(probes, a.Start.Add(i*addr.PageSize))
	}
	for i := uint64(0); i < 256; i++ {
		probes = append(probes, b.Start.Add(i*addr.PageSize))
	}
	probes = append(probes, addr.VirtAddr(1)<<40)

	agree := func(stage string) (covered, uncoveredMapped int) {
		t.Helper()
		for _, va := range probes {
			dpa, dcost, dok := dsBE.Resolve(va)
			ppa, pcost, pok := pagedBE.Resolve(va)
			if !d.watch.dirty && d.seg.Covers(va) {
				if !dok || !pok {
					t.Fatalf("%s: covered %s not resolvable (ds ok=%v paged ok=%v)", stage, va, dok, pok)
				}
				if dpa != ppa {
					t.Fatalf("%s: covered %s: segment says %s, paged walk says %s", stage, va, dpa, ppa)
				}
				if dcost != 0 {
					t.Fatalf("%s: covered %s charged %v cycles, want 0", stage, va, dcost)
				}
				covered++
				continue
			}
			if dok != pok || dpa != ppa || dcost != pcost {
				t.Fatalf("%s: uncovered %s: ds (pa %s cost %v ok %v) != paged (pa %s cost %v ok %v)",
					stage, va, dpa, dcost, dok, ppa, pcost, pok)
			}
			if pok {
				uncoveredMapped++
			}
		}
		return covered, uncoveredMapped
	}

	covered, uncovered := agree("initial")
	if covered == 0 || uncovered == 0 {
		t.Fatalf("layout vacuous: %d covered, %d uncovered-mapped probes", covered, uncovered)
	}

	// Unmap the segment's backing VMA: the watch goes dirty, Resolve
	// must fall back to the live tables immediately, and the next
	// Translate rebuilds the segment over what remains.
	env.Proc.MUnmap(a)
	if !d.watch.dirty {
		t.Fatal("unmap did not dirty the segment watch")
	}
	agree("dirty")
	rebuilds := d.Rebuilds
	d.Translate(b.Start)
	if d.Rebuilds != rebuilds+1 {
		t.Fatalf("Translate after churn did not rebuild the segment (rebuilds %d)", d.Rebuilds)
	}
	if covered, _ := agree("rebuilt"); covered == 0 {
		t.Fatal("rebuilt segment covers nothing mapped")
	}
	for _, va := range probes[:8] {
		if d.seg.Covers(va) {
			t.Fatalf("rebuilt segment still covers unmapped %s", va)
		}
	}
}

// TestWalkCacheCorruptionDetected pins the paged backend's staleness
// observables, the counterpart of the detach-based corruption test the
// derived-state backends get in internal/check. A hand-corrupted memo
// entry is served verbatim while the table generations stand still —
// and the divergence is exactly what a differ comparing the memoized
// translate against the live tables (peek) must catch. Any table
// mutation then moves the generation and the corrupt entry dies, which
// is the self-invalidation that makes the memo safe without observer
// events.
func TestWalkCacheCorruptionDetected(t *testing.T) {
	env := nativeEnv(t)
	env.Kernel.THPEnabled = false
	v, err := env.MMap(64 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(v); err != nil {
		t.Fatal(err)
	}
	be, err := New(BackendPaged, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	p := be.(*pagedBackend)

	va := v.Start.Add(5 * addr.PageSize)
	w := p.Translate(va)
	if !w.OK {
		t.Fatal("populated page failed to translate")
	}

	vpn := uint64(va) >> addr.PageShift
	e := &p.wc.entries[vpn%walkCacheEntries]
	if !e.valid || e.vpn != vpn {
		t.Fatal("memo entry for the translated VPN missing")
	}
	e.hpa += addr.PageSize // inject stale-translation corruption

	got := p.Translate(va)
	want := p.peek(va)
	if got.HPA == want.HPA {
		t.Fatal("corrupt memo entry was not served — corruption test is vacuous")
	}
	if got.HPA != want.HPA+addr.PageSize {
		t.Fatalf("translate = %s, want the injected %s", got.HPA, want.HPA+addr.PageSize)
	}

	// Any table mutation moves the generation; the corrupt entry must
	// never be served again.
	if _, _, ok := env.Proc.PT.Unmap(v.Start); !ok {
		t.Fatal("unmap failed")
	}
	got = p.Translate(va)
	if !got.OK || got.HPA != want.HPA {
		t.Fatalf("generation bump did not kill the corrupt entry: got %s ok=%v, want %s", got.HPA, got.OK, want.HPA)
	}
}

// TestPooledWalkCacheNeverServesPreviousOwner pins the pool's safety
// contract: a backend that borrows an array a previous owner filled
// must not hit on any of its entries. The poisoned array is the worst
// case — every entry valid, keyed by exactly the VPNs probed, and
// filled at generation 0, which is where a fresh, empty table sits —
// so only the clear on acquire stands between it and a hit.
func TestPooledWalkCacheNeverServesPreviousOwner(t *testing.T) {
	env := nativeEnv(t)
	if g := env.Proc.PT.Generation(); g != 0 {
		t.Fatalf("fresh table at generation %d, want 0", g)
	}
	base := uint64(1<<30) >> addr.PageShift
	poison := new(walkEntries)
	for i := uint64(0); i < walkCacheEntries; i++ {
		vpn := base + i
		poison[vpn%walkCacheEntries] = walkEntry{
			vpn: vpn, hpa: addr.PhysAddr(i << addr.PageShift), cost: 1, valid: true,
		}
	}
	// sync.Pool gives no ordering guarantee (and the race detector drops
	// Puts at random), so retry on an emptied pool until the backend
	// draws the poisoned array. Two GCs empty the pool, so the poison
	// is never in it twice.
	var p *pagedBackend
	for try := 0; p == nil; try++ {
		if try == 100 {
			t.Fatal("the pool never handed out the poisoned array")
		}
		runtime.GC()
		runtime.GC()
		walkEntriesPool.Put(poison)
		be, err := New(BackendPaged, env, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if pb := be.(*pagedBackend); pb.wc.entries == poison {
			p = pb
		} else {
			be.Close()
		}
	}
	defer p.Close()
	for i := uint64(0); i < walkCacheEntries; i += 97 {
		va := addr.VirtAddr((base + i) << addr.PageShift)
		if w := p.Translate(va); w.OK {
			t.Fatalf("unmapped %s translated to %s: served a previous owner's entry", va, w.HPA)
		}
	}
	if p.wc.Hits != 0 {
		t.Fatalf("walk cache hit %d times on an empty table", p.wc.Hits)
	}
}

// TestCloseReturnsWalkCache pins the release path: Close hands the
// array back once, and the core falls back to no cache, so a repeated
// Close cannot put the same array in the pool twice.
func TestCloseReturnsWalkCache(t *testing.T) {
	for _, name := range []string{BackendPaged, BackendRMM, BackendDS} {
		be, err := New(name, nativeEnv(t), Config{})
		if err != nil {
			t.Fatal(err)
		}
		c := coreOf(t, be)
		if c.wc == nil {
			t.Fatalf("%s: no walk cache before Close", name)
		}
		be.Close()
		if c.wc != nil {
			t.Fatalf("%s: Close kept the walk cache", name)
		}
		be.Close()
	}
}

func coreOf(t *testing.T, be Backend) *core {
	t.Helper()
	switch b := be.(type) {
	case *pagedBackend:
		return &b.core
	case *rmmBackend:
		return &b.core
	case *dsBackend:
		return &b.core
	}
	t.Fatalf("backend %s has no walk-cache core", be.Name())
	return nil
}
