// Package metrics computes the contiguity statistics the paper's
// evaluation reports: memory-footprint coverage by the N largest
// contiguous mappings (Figs. 1, 7, 8, 10, 12), the number of mappings
// needed to cover 99 % of the footprint, free-block distributions
// (Fig. 9), percentile latencies (Table V, over exact histograms), and
// bloat (Table VI).
//
// A "mapping" here is the paper's Fig. 1a object: a maximal extent of
// virtual pages mapped to consecutive physical pages — independent of
// the page size backing it.
package metrics

import (
	"math"
	"sort"

	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
)

// Mapping is one contiguous virtual-to-physical extent.
type Mapping struct {
	VA    addr.VirtAddr
	PA    addr.PhysAddr
	Pages uint64
}

// End returns one past the mapping's last virtual byte.
func (m Mapping) End() addr.VirtAddr { return m.VA.Add(m.Pages * addr.PageSize) }

// Offset returns the mapping's translation offset.
func (m Mapping) Offset() addr.Offset { return addr.OffsetOf(m.VA, m.PA) }

// FromPageTable extracts maximal contiguous mappings from a page table
// (the pagemap-based method the paper uses natively).
func FromPageTable(pt *pagetable.Table) []Mapping {
	var out []Mapping
	var cur Mapping
	pt.Visit(func(l pagetable.Leaf) {
		pa := l.PTE.PFN.Addr()
		if cur.Pages > 0 && l.VA == cur.End() && pa == cur.PA+addr.PhysAddr(cur.Pages*addr.PageSize) {
			cur.Pages += l.Pages
			return
		}
		if cur.Pages > 0 {
			out = append(out, cur)
		}
		cur = Mapping{VA: l.VA, PA: pa, Pages: l.Pages}
	})
	if cur.Pages > 0 {
		out = append(out, cur)
	}
	return out
}

// SortBySize orders mappings by size, largest first (stable on VA).
func SortBySize(ms []Mapping) {
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].Pages > ms[j].Pages })
}

// TotalPages sums mapping sizes.
func TotalPages(ms []Mapping) uint64 {
	var n uint64
	for _, m := range ms {
		n += m.Pages
	}
	return n
}

// CoverageTopN returns the fraction (0..1) of the total mapped
// footprint covered by the N largest mappings.
func CoverageTopN(ms []Mapping, n int) float64 {
	total := TotalPages(ms)
	if total == 0 {
		return 0
	}
	sorted := append([]Mapping(nil), ms...)
	SortBySize(sorted)
	var covered uint64
	for i := 0; i < n && i < len(sorted); i++ {
		covered += sorted[i].Pages
	}
	return float64(covered) / float64(total)
}

// MappingsFor covers returns the number of largest-first mappings
// needed to reach the given coverage fraction of the footprint (the
// paper's "number of mappings to cover 99 %").
func MappingsFor(ms []Mapping, coverage float64) int {
	total := TotalPages(ms)
	if total == 0 {
		return 0
	}
	sorted := append([]Mapping(nil), ms...)
	SortBySize(sorted)
	target := uint64(coverage * float64(total))
	var covered uint64
	for i, m := range sorted {
		covered += m.Pages
		if covered >= target {
			return i + 1
		}
	}
	return len(sorted)
}

// Percentile returns the p-quantile (0..1) of xs using nearest-rank on
// a sorted copy. Returns 0 for empty input.
func Percentile(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[nearestRank(uint64(len(sorted)), p)]
}

// nearestRank is the 0-based index of the p-quantile in n > 0 sorted
// samples, clamped to [0, n-1]. Percentile and Histogram.Percentile
// both use it, so a histogram always reports what the expanded sample
// list would.
func nearestRank(n uint64, p float64) uint64 {
	rank := int64(p*float64(n)+0.5) - 1
	if rank < 0 {
		return 0
	}
	if uint64(rank) >= n {
		return n - 1
	}
	return uint64(rank)
}

// Bucket is one distinct value of a Histogram and how often it was
// added.
type Bucket struct {
	Value, Count uint64
}

// Histogram is an exact histogram of uint64 samples: one bucket per
// distinct value, kept sorted by value. It answers the same quantiles
// as the sample list it replaces, in memory that grows with the number
// of distinct values instead of the number of samples. Adding a value
// seen before never allocates. The zero value is empty and ready to
// use.
type Histogram struct {
	buckets []Bucket
}

// Add records one sample.
func (h *Histogram) Add(v uint64) { h.addN(v, 1) }

// addN records n samples of value v.
func (h *Histogram) addN(v, n uint64) {
	lo, hi := 0, len(h.buckets)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.buckets[mid].Value < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.buckets) && h.buckets[lo].Value == v {
		h.buckets[lo].Count += n
		return
	}
	h.buckets = append(h.buckets, Bucket{})
	copy(h.buckets[lo+1:], h.buckets[lo:])
	h.buckets[lo] = Bucket{Value: v, Count: n}
}

// Merge adds every sample of o.
func (h *Histogram) Merge(o *Histogram) {
	for _, b := range o.buckets {
		h.addN(b.Value, b.Count)
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, b := range h.buckets {
		n += b.Count
	}
	return n
}

// Buckets returns the distinct values in ascending order with their
// counts. The slice is the histogram's own; callers must not modify it.
func (h *Histogram) Buckets() []Bucket { return h.buckets }

// Percentile returns the p-quantile (0..1) by the nearest-rank rule of
// the package-level Percentile. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := nearestRank(n, p)
	for _, b := range h.buckets {
		if rank < b.Count {
			return b.Value
		}
		rank -= b.Count
	}
	return h.buckets[len(h.buckets)-1].Value // unreachable: rank < n
}

// Mean returns the arithmetic mean of xs (0 for empty). It accumulates
// in float64: a uint64 accumulator silently wraps on large cycle totals
// (e.g. two samples of 2^63 summed to 0).
func Mean(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty; zeros clamp
// to 1 to stay defined, as the paper's geomeans do for counts).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x < 1 {
			x = 1
		}
		prod *= x
	}
	// n-th root via successive halving-free math: use math.Pow.
	return pow(prod, 1/float64(len(xs)))
}

// GeoMeanFrac is GeoMean for fractions in (0,1]: zeros clamp to a tiny
// epsilon instead of 1.
func GeoMeanFrac(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	prod := 1.0
	for _, x := range xs {
		if x < 1e-9 {
			x = 1e-9
		}
		prod *= x
	}
	return pow(prod, 1/float64(len(xs)))
}

// pow is math.Pow; indirected for clarity of intent above.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// FreeOrderHistogram tallies free blocks per buddy order from any
// free-block visitor (a single zone's Buddy.VisitFreeBlocks, or a
// machine-wide visitor that chains zones). Index o counts free blocks
// of order o.
func FreeOrderHistogram(visit func(fn func(pfn addr.PFN, order int))) [addr.MaxOrder + 1]uint64 {
	var counts [addr.MaxOrder + 1]uint64
	visit(func(_ addr.PFN, order int) { counts[order]++ })
	return counts
}

// UnusableFreeIndex computes Gorman's unusable free space index for
// allocations of the given order from a per-order free-block histogram:
// the fraction (0..1) of free memory that sits in blocks too small to
// satisfy a 2^order-page request. 0 means every free page is usable at
// that granularity; 1 means none is. Zero when nothing is free (an
// exhausted machine is not fragmented, matching FragScore).
func UnusableFreeIndex(counts [addr.MaxOrder + 1]uint64, order int) float64 {
	var free, usable uint64
	for o := 0; o <= addr.MaxOrder; o++ {
		pages := counts[o] * addr.OrderPages(o)
		free += pages
		if o >= order {
			usable += pages
		}
	}
	if free == 0 {
		return 0
	}
	return float64(free-usable) / float64(free)
}

// SizeBuckets buckets a free-block histogram (pages -> count) into the
// paper's Fig. 9 size classes, returning the fraction of total free
// memory per class. Classes: <=2MiB, <=64MiB, <=1GiB, >1GiB.
func SizeBuckets(hist map[uint64]uint64) (frac [4]float64) {
	bounds := [3]uint64{
		addr.HugeSize / addr.PageSize, // 2 MiB
		64 << 20 / addr.PageSize,      // 64 MiB
		1 << 30 / addr.PageSize,       // 1 GiB
	}
	var per [4]uint64
	var total uint64
	for size, count := range hist {
		pages := size * count
		total += pages
		switch {
		case size <= bounds[0]:
			per[0] += pages
		case size <= bounds[1]:
			per[1] += pages
		case size <= bounds[2]:
			per[2] += pages
		default:
			per[3] += pages
		}
	}
	if total == 0 {
		return
	}
	for i := range per {
		frac[i] = float64(per[i]) / float64(total)
	}
	return
}
