package translation

import (
	"repro/internal/hw/tlb"
	"repro/internal/hw/walker"
	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/trace"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// core is the radix-walk machinery every backend falls back on: the
// (memoized) native or nested page walk, priced through the walk
// meter. It holds no fast-path state of its own — backends layer their
// TLBs, ranges, segments, and hashed tables in front of it.
type core struct {
	env *workloads.Env
	wc  *walkCache
	wm  walker.Meter
}

func newCore(env *workloads.Env, noWalkCache bool) core {
	c := core{env: env}
	if !noWalkCache {
		if env.VM != nil {
			c.wc = newWalkCache(env.VM.NestedTables(env.Proc))
		} else {
			c.wc = newWalkCache(env.Proc.PT, nil)
		}
	}
	return c
}

// release returns the walk cache's pooled array. The paged, rmm and ds
// backends call it from Close; a second call does nothing.
func (c *core) release() {
	if c.wc != nil {
		c.wc.release()
		c.wc = nil
	}
}

// translate performs the baseline walk for va through the walk cache:
// a hot miss is one array probe; only cold or invalidated VPNs pay the
// full trie descent of resolve.
func (c *core) translate(va addr.VirtAddr) Walk {
	if c.wc == nil {
		return c.resolve(va)
	}
	vpn := uint64(va) >> addr.PageShift
	if e, hit := c.wc.probe(vpn); hit {
		return Walk{
			HPA:      e.hpa + addr.PhysAddr(uint64(va)&addr.PageMask),
			Cost:     e.cost,
			LeafHuge: e.leafHuge,
			GContig:  e.gContig,
			HContig:  e.hContig,
			OK:       true,
		}
	}
	w := c.resolve(va)
	if w.OK {
		// The in-page offset of HPA equals va's: caching the page-base
		// hPA makes the entry valid for every offset within the VPN.
		c.wc.fill(vpn, w.HPA-addr.PhysAddr(uint64(va)&addr.PageMask), w.LeafHuge, w.Cost, w.GContig, w.HContig)
	}
	return w
}

// resolve performs the baseline translation for va: a nested walk in a
// VM, a native walk otherwise. The native case reports the single PTE
// contiguity bit in both positions. Costs route through the walk meter
// so every priced walk becomes a trace span.
func (c *core) resolve(va addr.VirtAddr) Walk {
	env := c.env
	if env.VM != nil {
		w := env.VM.Walk(env.Proc, va)
		if !w.OK {
			return Walk{}
		}
		return Walk{
			HPA:      w.HPA,
			Cost:     c.wm.Nested(va, w),
			LeafHuge: w.GuestLevel == pagetable.HugeLevel && w.HostLevel == pagetable.HugeLevel,
			GContig:  w.GuestContig,
			HContig:  w.HostContig,
			OK:       true,
		}
	}
	pte, level, _, okWalk := env.Proc.PT.Walk(va)
	if !okWalk {
		return Walk{}
	}
	span := uint64(addr.PageSize)
	if level == pagetable.HugeLevel {
		span = addr.HugeSize
	}
	contig := pte.Flags.Has(pagetable.Contig)
	return Walk{
		HPA:      pte.PFN.Addr() + addr.PhysAddr(uint64(va)&(span-1)),
		Cost:     c.wm.Native(va, level),
		LeafHuge: level == pagetable.HugeLevel,
		GContig:  contig,
		HContig:  contig,
		OK:       true,
	}
}

// peek is resolve without side effects: no walk-cache fill, no trace
// span. It backs the Resolve probe of every backend.
func (c *core) peek(va addr.VirtAddr) Walk {
	env := c.env
	if env.VM != nil {
		w := env.VM.Walk(env.Proc, va)
		if !w.OK {
			return Walk{}
		}
		return Walk{
			HPA:      w.HPA,
			Cost:     walker.NestedCost(w),
			LeafHuge: w.GuestLevel == pagetable.HugeLevel && w.HostLevel == pagetable.HugeLevel,
			GContig:  w.GuestContig,
			HContig:  w.HostContig,
			OK:       true,
		}
	}
	pte, level, _, okWalk := env.Proc.PT.Walk(va)
	if !okWalk {
		return Walk{}
	}
	span := uint64(addr.PageSize)
	if level == pagetable.HugeLevel {
		span = addr.HugeSize
	}
	contig := pte.Flags.Has(pagetable.Contig)
	return Walk{
		HPA:      pte.PFN.Addr() + addr.PhysAddr(uint64(va)&(span-1)),
		Cost:     walker.NativeCost(level),
		LeafHuge: level == pagetable.HugeLevel,
		GContig:  contig,
		HContig:  contig,
		OK:       true,
	}
}

// pagedBackend is the paper's baseline stack: L2 TLB in front of the
// memoized radix walk, with optional shadow paging for virtualized
// environments. It needs no mapping-event subscription — the walk
// cache self-invalidates on table generations, and the TLB (like real
// hardware without shootdowns) may carry stale *presence* but never
// serves physical addresses.
type pagedBackend struct {
	core
	tlb        *tlb.TLB
	shadow     *virt.ShadowTable
	shadowExit float64
	cnt        Counters
}

func newPaged(env *workloads.Env, cfg Config) *pagedBackend {
	b := &pagedBackend{
		core:       newCore(env, cfg.NoWalkCache),
		tlb:        tlb.New(cfg.TLBEntries, cfg.TLBWays),
		shadowExit: cfg.ShadowExitCycles,
	}
	if cfg.ShadowPaging && env.VM != nil {
		b.shadow = env.VM.NewShadow(env.Proc)
	}
	b.SetTracer(cfg.Tracer)
	return b
}

func (b *pagedBackend) Name() string { return BackendPaged }

func (b *pagedBackend) Lookup(va addr.VirtAddr) bool {
	b.cnt.Lookups++
	if b.tlb.Lookup(va) {
		b.cnt.Hits++
		return true
	}
	b.cnt.Misses++
	return false
}

func (b *pagedBackend) Translate(va addr.VirtAddr) Walk {
	w := b.translate(va)
	if b.shadow != nil {
		if shpa, lvl, synced, sok := b.shadow.Walk(va); sok {
			w.HPA, w.OK = shpa, true
			w.LeafHuge = lvl == pagetable.HugeLevel
			w.Cost = walker.NativeCost(lvl)
			if synced {
				w.Cost += b.shadowExit
				w.ShadowSynced = true
			}
		}
	}
	return w
}

func (b *pagedBackend) Insert(va addr.VirtAddr, w Walk) {
	b.tlb.Insert(va, w.LeafHuge)
}

// Resolve reports the baseline radix translation. In shadow-paging
// mode the shadow overlay is deliberately not consulted: shadow walks
// install entries (they mutate), and the shadow never diverges from
// the composed translation it shadows.
func (b *pagedBackend) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	w := b.peek(va)
	return w.HPA, w.Cost, w.OK
}

func (b *pagedBackend) Flush() {
	b.tlb.Flush()
	if b.wc != nil {
		b.wc.flush()
	}
}

func (b *pagedBackend) Counters() Counters { return b.cnt }

func (b *pagedBackend) SetTracer(t *trace.Tracer) {
	b.wm.T = t
	b.tlb.SetTracer(t)
}

func (b *pagedBackend) Close() { b.release() }

// Shadow exposes the shadow table (sim reads SyncExits; nil without
// ShadowPaging).
func (b *pagedBackend) Shadow() *virt.ShadowTable { return b.shadow }

// WalkCacheStats reports the memo's hit/fill counters (benchmarks).
func (b *pagedBackend) WalkCacheStats() (hits, fills uint64) {
	if b.wc == nil {
		return 0, 0
	}
	return b.wc.Hits, b.wc.Fills
}
