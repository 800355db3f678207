package workloads

import (
	"math/rand"

	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
)

// Scaled footprints: the paper's 29–167 GB workloads divided by ~512,
// preserving their relative spread (Table III).
const (
	MiB = 1 << 20

	svmModelBytes    = 8 * MiB
	svmFeatureBytes  = 88 * MiB
	svmDatasetBytes  = 32 * MiB // kdd12 through the page cache
	svmSmallVMACount = 24
	svmSmallVMABytes = 512 << 10

	prVertexBytes  = 120 * MiB
	prEdgeBytes    = 112 * MiB
	prDatasetBytes = 48 * MiB // friendster through the page cache

	hjTableBytes  = 400 * MiB // spans two 384 MiB guest zones like the 102 GB original
	hjBufferBytes = 16 * MiB

	xsGridBytes      = 256 * MiB
	xsUnionizedBytes = 192 * MiB

	btArrayBytes = 96 * MiB // ×5 arrays = 480 MiB, the biggest footprint
	btArrays     = 5
)

// Allocator slack: the fraction of each heap VMA the application maps
// but never touches (TCMalloc rounding, Table VI). Eager paging turns
// this into bloat; demand paging does not. Fractions follow the
// paper's measured eager bloat percentages.
const (
	svmSlack      = 0.08
	pagerankSlack = 0.065
	hashjoinSlack = 0.48
	xsbenchSlack  = 0.005
	btSlack       = 0.001
)

// usedRegion builds a stream region covering only the touched part of
// a VMA allocated with slack.
func usedRegion(start addr.VirtAddr, usedBytes uint64) region {
	return region{start: start, pages: usedBytes / addr.PageSize}
}

// PC values: fixed synthetic instruction addresses so the SpOT table
// indexes deterministically.
func pc(workload, instr int) uint64 { return 0x400000 + uint64(workload)<<12 + uint64(instr)*4 }

// ---------------------------------------------------------------- SVM

// SVM models Liblinear SVM on kdd12: a dataset ingested via the page
// cache into a large feature matrix, a small hot model vector, and —
// key to its SpOT behaviour — a set of small auxiliary VMAs whose
// scattered mappings defeat offset prediction for the instruction that
// walks them (§VI-B: ~4 % of SVM's misses fall outside the 32 largest
// mappings and one instruction misses irregularly).
type SVM struct {
	features region
	model    region
	small    []region
}

// NewSVM constructs the workload.
func NewSVM() *SVM { return &SVM{} }

// Name implements Workload.
func (s *SVM) Name() string { return "svm" }

// FootprintBytes implements Workload.
func (s *SVM) FootprintBytes() uint64 {
	return svmModelBytes + svmFeatureBytes + svmSmallVMACount*svmSmallVMABytes
}

// Setup implements Workload: dataset read interleaved with heap
// population (readahead interleaving of §III-C), then the model and the
// small auxiliary VMAs.
func (s *SVM) Setup(env *Env, rng *rand.Rand) error {
	f := env.Kernel.Cache.CreateFile(svmDatasetBytes)
	feat, err := env.MMapSlack(svmFeatureBytes, svmSlack)
	if err != nil {
		return err
	}
	// Interleave file reads with heap writes: read a chunk, populate a
	// chunk (applications parse file data into heap structures).
	chunk := uint64(4 * MiB)
	read := uint64(0)
	for off := uint64(0); off < svmFeatureBytes; off += chunk {
		if read < svmDatasetBytes {
			n := chunk
			if read+n > svmDatasetBytes {
				n = svmDatasetBytes - read
			}
			if err := env.Kernel.Cache.Read(f, read, n); err != nil {
				return err
			}
			read += n
		}
		end := off + chunk
		if end > svmFeatureBytes {
			end = svmFeatureBytes
		}
		if err := env.PopulateRange(feat, feat.Start.Add(off), end-off); err != nil {
			return err
		}
	}
	model, err := env.MMap(svmModelBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(model); err != nil {
		return err
	}
	s.features, s.model = usedRegion(feat.Start, svmFeatureBytes), regionOf(model)
	s.small = nil
	for i := 0; i < svmSmallVMACount; i++ {
		v, err := env.MMap(svmSmallVMABytes)
		if err != nil {
			return err
		}
		if err := env.Populate(v); err != nil {
			return err
		}
		s.small = append(s.small, regionOf(v))
	}
	return nil
}

// Stream implements Workload. SVM's measured phase: sparse row scans
// striding past huge-page boundaries (most misses, predictable within
// a mapping), hot model updates, a random gather, and the irregular
// instruction hopping across the scattered small VMAs that produces
// the paper's unpredictable miss tail (§VI-B).
func (s *SVM) Stream(rng *rand.Rand, n uint64) Stream {
	g := &svmStream{quota: quota{n}, features: s.features, model: s.model, small: s.small, b: s.features.pages / 3}
	g.d.init(rng)
	return g
}

// svmStream is SVM's generator. a and b are the two sparse row scans'
// page indexes; their strides (700 and 1300 pages) are below the
// feature region's page count, so step's single wrap suffices.
type svmStream struct {
	quota
	d        draws
	features region
	model    region
	small    []region
	a, b     uint64
}

func (g *svmStream) Next() (Access, bool) {
	var a [1]Access
	ok := g.Fill(a[:]) == 1
	return a[0], ok
}

func (g *svmStream) Fill(buf []Access) int {
	buf = buf[:g.take(len(buf))]
	f := g.features
	for i := range buf {
		g.d.reserve()
		switch x := g.d.intn(1000); {
		case x < 5: // sparse row scan, instruction A
			g.a = f.step(g.a, 700)
			buf[i] = Access{PC: pc(1, 0), VA: f.page(g.a)}
			g.a = f.step(g.a, 1)
		case x < 9: // sparse row scan, instruction B
			g.b = f.step(g.b, 1300)
			buf[i] = Access{PC: pc(1, 1), VA: f.page(g.b)}
			g.b = f.step(g.b, 1)
		case x < 100: // dense in-row accesses (page-sequential)
			buf[i] = Access{PC: pc(1, 5), VA: f.page(f.step(g.a, uint64(g.d.intn(8))))}
		case x < 985: // hot model vector (TLB resident)
			buf[i] = Access{PC: pc(1, 2), VA: g.model.page(uint64(g.d.intn(8))), Write: true}
		case x < 996: // random feature gather
			buf[i] = Access{PC: pc(1, 3), VA: f.pageVA(g.d.u64())}
		default: // irregular hops across scattered small VMAs
			r := g.small[g.d.intn(svmSmallVMACount)]
			buf[i] = Access{PC: pc(1, 4), VA: r.pageVA(g.d.u64())}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------- PageRank

// PageRank models Ligra PageRank on friendster: an edge array streamed
// sequentially and a vertex array accessed randomly — but both inside
// single huge VMAs, which is why SpOT predicts it almost perfectly once
// CA paging makes each VMA one mapping (Fig. 14: >99 % correct).
type PageRank struct {
	vertices region
	edges    region
}

// NewPageRank constructs the workload.
func NewPageRank() *PageRank { return &PageRank{} }

// Name implements Workload.
func (p *PageRank) Name() string { return "pagerank" }

// FootprintBytes implements Workload.
func (p *PageRank) FootprintBytes() uint64 { return prVertexBytes + prEdgeBytes }

// Setup implements Workload.
func (p *PageRank) Setup(env *Env, rng *rand.Rand) error {
	f := env.Kernel.Cache.CreateFile(prDatasetBytes)
	edges, err := env.MMapSlack(prEdgeBytes, pagerankSlack)
	if err != nil {
		return err
	}
	// Graph loading: read file chunks, write edge array.
	chunk := uint64(8 * MiB)
	read := uint64(0)
	for off := uint64(0); off < prEdgeBytes; off += chunk {
		if read < prDatasetBytes {
			n := chunk
			if read+n > prDatasetBytes {
				n = prDatasetBytes - read
			}
			if err := env.Kernel.Cache.Read(f, read, n); err != nil {
				return err
			}
			read += n
		}
		end := off + chunk
		if end > prEdgeBytes {
			end = prEdgeBytes
		}
		if err := env.PopulateRange(edges, edges.Start.Add(off), end-off); err != nil {
			return err
		}
	}
	verts, err := env.MMap(prVertexBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(verts); err != nil {
		return err
	}
	p.edges, p.vertices = usedRegion(edges.Start, prEdgeBytes), regionOf(verts)
	return nil
}

// Stream implements Workload.
func (p *PageRank) Stream(rng *rand.Rand, n uint64) Stream {
	g := &pagerankStream{quota: quota{n}, edges: p.edges, vertices: p.vertices}
	g.d.init(rng)
	return g
}

// pagerankStream is PageRank's generator: seq walks the edge array,
// hot cycles through the first 8 vertex pages.
type pagerankStream struct {
	quota
	d        draws
	edges    region
	vertices region
	seq, hot uint64
}

func (g *pagerankStream) Next() (Access, bool) {
	var a [1]Access
	ok := g.Fill(a[:]) == 1
	return a[0], ok
}

func (g *pagerankStream) Fill(buf []Access) int {
	buf = buf[:g.take(len(buf))]
	for i := range buf {
		g.d.reserve()
		switch x := g.d.intn(1000); {
		case x < 300: // edge stream
			buf[i] = Access{PC: pc(2, 0), VA: g.edges.page(g.seq)}
			g.seq = g.edges.step(g.seq, 1)
		case x < 318: // random vertex ranks (one big mapping)
			buf[i] = Access{PC: pc(2, 1), VA: g.vertices.pageVA(g.d.u64()), Write: true}
		default: // hot frontier/accumulator pages
			g.hot = (g.hot + 1) & 7
			buf[i] = Access{PC: pc(2, 2), VA: g.vertices.page(g.hot), Write: true}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------- hashjoin

// HashJoin models the hashjoin microbenchmark: a giant hash table built
// then probed with uniformly random keys, from 10 worker threads. Its
// footprint (102 GB in the paper) spans two NUMA nodes, so even CA
// paging yields several mappings, and the random probes from single
// instructions cross them — producing SpOT's worst mispredict rate
// (Fig. 14: ~4 %).
type HashJoin struct {
	table region
	buf   region
}

// NewHashJoin constructs the workload.
func NewHashJoin() *HashJoin { return &HashJoin{} }

// Name implements Workload.
func (h *HashJoin) Name() string { return "hashjoin" }

// FootprintBytes implements Workload.
func (h *HashJoin) FootprintBytes() uint64 { return hjTableBytes + hjBufferBytes }

// Setup implements Workload.
func (h *HashJoin) Setup(env *Env, rng *rand.Rand) error {
	table, err := env.MMapSlack(hjTableBytes, hashjoinSlack)
	if err != nil {
		return err
	}
	if err := env.PopulatePrefix(table, hjTableBytes); err != nil {
		return err
	}
	buf, err := env.MMap(hjBufferBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(buf); err != nil {
		return err
	}
	h.table, h.buf = usedRegion(table.Start, hjTableBytes), regionOf(buf)
	return nil
}

// Stream implements Workload: 10 interleaved "threads", each with its
// own probe instruction, all uniformly random over the whole table.
func (h *HashJoin) Stream(rng *rand.Rand, n uint64) Stream {
	g := &hashjoinStream{quota: quota{n}, table: h.table, buf: h.buf}
	g.d.init(rng)
	return g
}

// hashjoinStream is HashJoin's generator; thread round-robins 0..9.
type hashjoinStream struct {
	quota
	d      draws
	table  region
	buf    region
	thread int
}

func (g *hashjoinStream) Next() (Access, bool) {
	var a [1]Access
	ok := g.Fill(a[:]) == 1
	return a[0], ok
}

func (g *hashjoinStream) Fill(buf []Access) int {
	buf = buf[:g.take(len(buf))]
	for i := range buf {
		g.d.reserve()
		if g.thread++; g.thread == 10 {
			g.thread = 0
		}
		t := g.thread
		switch x := g.d.intn(1000); {
		case x < 7: // random probe, thread-specific PC
			buf[i] = Access{PC: pc(3, t), VA: g.table.pageVA(g.d.u64())}
		case x < 10: // chained bucket walk (second dependent load)
			buf[i] = Access{PC: pc(3, 10+t), VA: g.table.pageVA(g.d.u64())}
		default: // per-thread output buffer (hot)
			buf[i] = Access{PC: pc(3, 20+t), VA: g.buf.page(uint64(t)), Write: true}
		}
	}
	return len(buf)
}

// ------------------------------------------------------------ XSBench

// XSBench models the Monte Carlo neutron-transport kernel: random
// lookups into large read-only cross-section grids plus a binary search
// over the unionized energy grid, from 10 threads.
type XSBench struct {
	grids     region
	unionized region
}

// NewXSBench constructs the workload.
func NewXSBench() *XSBench { return &XSBench{} }

// Name implements Workload.
func (x *XSBench) Name() string { return "xsbench" }

// FootprintBytes implements Workload.
func (x *XSBench) FootprintBytes() uint64 { return xsGridBytes + xsUnionizedBytes }

// Setup implements Workload.
func (x *XSBench) Setup(env *Env, rng *rand.Rand) error {
	grids, err := env.MMapSlack(xsGridBytes, xsbenchSlack)
	if err != nil {
		return err
	}
	if err := env.PopulatePrefix(grids, xsGridBytes); err != nil {
		return err
	}
	uni, err := env.MMap(xsUnionizedBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(uni); err != nil {
		return err
	}
	x.grids, x.unionized = usedRegion(grids.Start, xsGridBytes), regionOf(uni)
	return nil
}

// Stream implements Workload.
func (x *XSBench) Stream(rng *rand.Rand, n uint64) Stream {
	g := &xsbenchStream{quota: quota{n}, grids: x.grids, unionized: x.unionized}
	g.d.init(rng)
	return g
}

// xsbenchStream is XSBench's generator.
type xsbenchStream struct {
	quota
	d         draws
	grids     region
	unionized region
}

func (g *xsbenchStream) Next() (Access, bool) {
	var a [1]Access
	ok := g.Fill(a[:]) == 1
	return a[0], ok
}

func (g *xsbenchStream) Fill(buf []Access) int {
	buf = buf[:g.take(len(buf))]
	for i := range buf {
		g.d.reserve()
		switch v := g.d.intn(1000); {
		case v < 12: // random nuclide grid lookup
			nuclide := g.d.intn(10)
			buf[i] = Access{PC: pc(4, nuclide), VA: g.grids.pageVA(g.d.u64())}
		case v < 14: // unionized grid binary-search probes
			buf[i] = Access{PC: pc(4, 20), VA: g.unionized.pageVA(g.d.u64())}
		default: // per-particle hot state
			buf[i] = Access{PC: pc(4, 30), VA: g.unionized.page(uint64(v & 3)), Write: true}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------------- BT

// BT models NAS BT class E: five large multi-dimensional arrays swept
// along different dimensions; the z-dimension sweeps stride by whole
// planes, missing the TLB on nearly every reference. Its footprint is
// the largest and spans NUMA nodes, the case where CA paging loses some
// contiguity at the node boundary (§VI-A).
type BT struct {
	arrays []region
}

// NewBT constructs the workload.
func NewBT() *BT { return &BT{} }

// Name implements Workload.
func (b *BT) Name() string { return "bt" }

// FootprintBytes implements Workload.
func (b *BT) FootprintBytes() uint64 { return btArrays * btArrayBytes }

// Setup implements Workload: the five arrays are allocated up front and
// populated interleaved (BT's init loops sweep all arrays together), so
// their faults compete for free blocks — the pattern that costs CA
// paging contiguity when the footprint spills to the second NUMA node
// (§VI-A).
func (b *BT) Setup(env *Env, rng *rand.Rand) error {
	b.arrays = nil
	vmas := make([]*vma.VMA, 0, btArrays)
	for i := 0; i < btArrays; i++ {
		v, err := env.MMapSlack(btArrayBytes, btSlack)
		if err != nil {
			return err
		}
		b.arrays = append(b.arrays, usedRegion(v.Start, btArrayBytes))
		vmas = append(vmas, v)
	}
	const chunk = 16 * MiB
	for off := uint64(0); off < btArrayBytes; off += chunk {
		for _, v := range vmas {
			end := off + chunk
			if end > v.Size() {
				end = v.Size()
			}
			if err := env.PopulateRange(v, v.Start.Add(off), end-off); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stream implements Workload.
func (b *BT) Stream(rng *rand.Rand, n uint64) Stream {
	g := &btStream{quota: quota{n}}
	copy(g.arrays[:], b.arrays)
	g.d.init(rng)
	return g
}

// btPlane is the z sweep's stride: 4096 pages (16 MiB planes), at or
// above the size of the fragments CA produces for BT, so the sweeping
// instructions hop mappings on almost every miss. Their offsets never
// gain confidence: SpOT abstains (no-prediction) instead of flushing
// the pipeline, the §IV-C behaviour. It is below an array's page
// count, so step's single wrap suffices.
const btPlane = 4096

// btStream is BT's generator: per array, z is the plane-strided sweep's
// page index and x the sequential sweep's.
type btStream struct {
	quota
	d      draws
	arrays [btArrays]region
	z, x   [btArrays]uint64
}

func (g *btStream) Next() (Access, bool) {
	var a [1]Access
	ok := g.Fill(a[:]) == 1
	return a[0], ok
}

func (g *btStream) Fill(buf []Access) int {
	buf = buf[:g.take(len(buf))]
	for i := range buf {
		g.d.reserve()
		a := g.d.intn(btArrays)
		r := &g.arrays[a]
		switch x := g.d.intn(1000); {
		case x < 6: // z sweep: plane-strided, misses constantly
			g.z[a] = r.step(g.z[a], btPlane)
			buf[i] = Access{PC: pc(5, a), VA: r.page(g.z[a]), Write: true}
		case x < 150: // x sweep: sequential
			buf[i] = Access{PC: pc(5, 10+a), VA: r.page(g.x[a])}
			g.x[a] = r.step(g.x[a], 1)
		default: // stencil locals (hot)
			buf[i] = Access{PC: pc(5, 20+a), VA: r.page(uint64(x & 3))}
		}
	}
	return len(buf)
}

// All returns the five paper workloads in Table III order.
func All() []Workload {
	return []Workload{NewSVM(), NewPageRank(), NewHashJoin(), NewXSBench(), NewBT()}
}

// ByName returns the workload with the given name, or nil.
func ByName(name string) Workload {
	for _, w := range All() {
		if w.Name() == name {
			return w
		}
	}
	return nil
}
