package translation

import (
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

// walkCacheEntries sizes the direct-mapped walk memo. Power of two so
// the VPN index is a mask; 64K entries cover the largest scaled
// workload footprint (BT: ~120K base pages) with acceptable conflict
// rates. The 3 MiB array is pooled: a backend borrows one for its
// lifetime and Close returns it, so back-to-back simulations reuse the
// same few arrays instead of allocating one each.
const walkCacheEntries = 1 << 16

// walkEntries is one walk cache's backing array.
type walkEntries [walkCacheEntries]walkEntry

// walkEntriesPool holds the arrays of closed backends.
var walkEntriesPool = sync.Pool{New: func() any { return new(walkEntries) }}

// walkEntry is one memoized leaf translation, keyed by 4K VPN. It
// stores the composed result of the baseline walk — the hPA of the 4K
// page, the effective leaf size, the walk's cycle cost, and the two
// contiguity bits — plus the table generations it was filled under.
type walkEntry struct {
	vpn        uint64
	genG, genH uint64
	hpa        addr.PhysAddr // hPA of the 4K page containing the VPN
	cost       float64
	leafHuge   bool
	gContig    bool
	hContig    bool
	valid      bool
}

// walkCache memoizes resolve results in front of the page-table trie —
// the simulator-side equivalent of the MMU's paging-structure caches
// (§II): a hot miss costs one array index instead of up to 8 trie
// descents (two 4-level walks in the nested case). Entries
// self-invalidate when either backing table's generation moves, so
// map/unmap/SetContig/migration during a run can never serve a stale
// translation.
type walkCache struct {
	entries *walkEntries
	guest   *pagetable.Table // the walked table (guest PT, or native PT)
	host    *pagetable.Table // nested second dimension; nil when native

	// Hits and Fills instrument cache effectiveness (benchmarks).
	Hits, Fills uint64
}

// newWalkCache builds a cache over the environment's table(s) on a
// pooled array.
func newWalkCache(guest, host *pagetable.Table) *walkCache {
	entries := walkEntriesPool.Get().(*walkEntries)
	// A pooled array still holds its previous owner's entries, filled
	// under another table's generations; a fresh table can sit at the
	// same generation, so only this clear keeps them from hitting.
	clear(entries[:])
	return &walkCache{entries: entries, guest: guest, host: host}
}

// release returns the array to the pool. The cache must not be used
// afterwards.
func (c *walkCache) release() {
	walkEntriesPool.Put(c.entries)
	c.entries = nil
}

// probe returns the memoized entry for vpn if it is still valid under
// the current table generations.
func (c *walkCache) probe(vpn uint64) (walkEntry, bool) {
	e := &c.entries[vpn%walkCacheEntries]
	if !e.valid || e.vpn != vpn || e.genG != c.guest.Generation() {
		return walkEntry{}, false
	}
	if c.host != nil && e.genH != c.host.Generation() {
		return walkEntry{}, false
	}
	c.Hits++
	return *e, true
}

// fill memoizes a freshly walked translation under the current
// generations. hpaPage must be the hPA of the 4K page (offset bits
// cleared); probe hits re-add the in-page offset.
func (c *walkCache) fill(vpn uint64, hpaPage addr.PhysAddr, leafHuge bool, cost float64, gContig, hContig bool) {
	var genH uint64
	if c.host != nil {
		genH = c.host.Generation()
	}
	c.entries[vpn%walkCacheEntries] = walkEntry{
		vpn:      vpn,
		genG:     c.guest.Generation(),
		genH:     genH,
		hpa:      hpaPage,
		cost:     cost,
		leafHuge: leafHuge,
		gContig:  gContig,
		hContig:  hContig,
		valid:    true,
	}
	c.Fills++
}

// flush invalidates every entry in place (no reallocation).
func (c *walkCache) flush() {
	for i := range c.entries {
		c.entries[i].valid = false
	}
}
