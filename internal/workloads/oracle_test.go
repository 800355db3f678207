package workloads

import (
	"math/rand"

	"repro/internal/mem/addr"
)

// The closure generators the direct-fill streams replaced, kept verbatim
// as the reference the stream equality tests hold the new generators
// to: each draws from the *rand.Rand directly, one Intn or Uint64 call
// per random choice, and wraps its walkers with pageVA's modulus.

// oracleStream returns w's reference stream.
func oracleStream(w Workload, rng *rand.Rand, n uint64) Stream {
	switch w := w.(type) {
	case *SVM:
		return w.oracleStream(rng, n)
	case *PageRank:
		return w.oracleStream(rng, n)
	case *HashJoin:
		return w.oracleStream(rng, n)
	case *XSBench:
		return w.oracleStream(rng, n)
	case *BT:
		return w.oracleStream(rng, n)
	}
	panic("oracleStream: unknown workload " + w.Name())
}

// funcStream adapts a generator function to Stream.
type funcStream struct {
	n    uint64
	i    uint64
	next func() Access
}

func (s *funcStream) Next() (Access, bool) {
	if s.i >= s.n {
		return Access{}, false
	}
	s.i++
	return s.next(), true
}

func (s *funcStream) Fill(buf []Access) int {
	n := uint64(len(buf))
	if rem := s.n - s.i; rem < n {
		n = rem
	}
	for i := uint64(0); i < n; i++ {
		buf[i] = s.next()
	}
	s.i += n
	return int(n)
}

// seqWalker strides through a region page by page, wrapping.
type seqWalker struct {
	r   region
	pos uint64
}

func (w *seqWalker) next() addr.VirtAddr {
	va := w.r.pageVA(w.pos)
	w.pos++
	return va
}

func (s *SVM) oracleStream(rng *rand.Rand, n uint64) Stream {
	strideA := &seqWalker{r: s.features}
	strideB := &seqWalker{r: s.features, pos: s.features.pages / 3}
	return &funcStream{n: n, next: func() Access {
		switch x := rng.Intn(1000); {
		case x < 5:
			strideA.pos += 700
			return Access{PC: pc(1, 0), VA: strideA.next()}
		case x < 9:
			strideB.pos += 1300
			return Access{PC: pc(1, 1), VA: strideB.next()}
		case x < 100:
			return Access{PC: pc(1, 5), VA: strideA.r.pageVA(strideA.pos + uint64(rng.Intn(8)))}
		case x < 985:
			return Access{PC: pc(1, 2), VA: s.model.pageVA(uint64(rng.Intn(8))), Write: true}
		case x < 996:
			return Access{PC: pc(1, 3), VA: s.features.pageVA(rng.Uint64())}
		default:
			r := s.small[rng.Intn(len(s.small))]
			return Access{PC: pc(1, 4), VA: r.pageVA(rng.Uint64())}
		}
	}}
}

func (p *PageRank) oracleStream(rng *rand.Rand, n uint64) Stream {
	seq := &seqWalker{r: p.edges}
	hot := uint64(0)
	return &funcStream{n: n, next: func() Access {
		switch x := rng.Intn(1000); {
		case x < 300:
			return Access{PC: pc(2, 0), VA: seq.next()}
		case x < 318:
			return Access{PC: pc(2, 1), VA: p.vertices.pageVA(rng.Uint64()), Write: true}
		default:
			hot++
			return Access{PC: pc(2, 2), VA: p.vertices.pageVA(hot % 8), Write: true}
		}
	}}
}

func (h *HashJoin) oracleStream(rng *rand.Rand, n uint64) Stream {
	thread := 0
	return &funcStream{n: n, next: func() Access {
		thread = (thread + 1) % 10
		switch x := rng.Intn(1000); {
		case x < 7:
			return Access{PC: pc(3, thread), VA: h.table.pageVA(rng.Uint64())}
		case x < 10:
			return Access{PC: pc(3, 10+thread), VA: h.table.pageVA(rng.Uint64())}
		default:
			return Access{PC: pc(3, 20+thread), VA: h.buf.pageVA(uint64(thread)), Write: true}
		}
	}}
}

func (x *XSBench) oracleStream(rng *rand.Rand, n uint64) Stream {
	return &funcStream{n: n, next: func() Access {
		switch v := rng.Intn(1000); {
		case v < 12:
			return Access{PC: pc(4, rng.Intn(10)), VA: x.grids.pageVA(rng.Uint64())}
		case v < 14:
			return Access{PC: pc(4, 20), VA: x.unionized.pageVA(rng.Uint64())}
		default:
			return Access{PC: pc(4, 30), VA: x.unionized.pageVA(uint64(v % 4)), Write: true}
		}
	}}
}

func (b *BT) oracleStream(rng *rand.Rand, n uint64) Stream {
	const plane = 4096
	zpos := make([]uint64, btArrays)
	seqs := make([]*seqWalker, btArrays)
	for i := range seqs {
		seqs[i] = &seqWalker{r: b.arrays[i]}
	}
	return &funcStream{n: n, next: func() Access {
		a := rng.Intn(btArrays)
		switch x := rng.Intn(1000); {
		case x < 6:
			zpos[a] += plane
			return Access{PC: pc(5, a), VA: b.arrays[a].pageVA(zpos[a]), Write: true}
		case x < 150:
			return Access{PC: pc(5, 10+a), VA: seqs[a].next()}
		default:
			return Access{PC: pc(5, 20+a), VA: b.arrays[a].pageVA(uint64(x % 4))}
		}
	}}
}
