package workloads

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/osim"
)

// setUpAll returns every workload set up on its own native machine.
func setUpAll(t testing.TB) []Workload {
	t.Helper()
	var ws []Workload
	for _, w := range All() {
		k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
		if err := w.Setup(NewNativeEnv(k, 0), rand.New(rand.NewSource(1))); err != nil {
			t.Fatalf("%s setup: %v", w.Name(), err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestStreamsMatchOracle holds every direct-fill generator to the
// closure generator it replaced: for seeds 1-3, 10^7 accesses each, the
// two streams agree access for access. 10^7 draws cover thousands of
// ring refills and wrap every sequential walker many times. The cases
// only read the set-up workloads, so they run in parallel.
func TestStreamsMatchOracle(t *testing.T) {
	const n = 10_000_000
	for _, w := range setUpAll(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", w.Name(), seed), func(t *testing.T) {
				t.Parallel()
				got := w.Stream(rand.New(rand.NewSource(seed)), n).(BatchStream)
				want := oracleStream(w, rand.New(rand.NewSource(seed)), n).(BatchStream)
				gb, wb := make([]Access, 4096), make([]Access, 4096)
				for i := 0; ; {
					k, kw := got.Fill(gb), want.Fill(wb)
					if k != kw {
						t.Fatalf("after %d accesses Fill gave %d, oracle %d", i, k, kw)
					}
					if k == 0 {
						if i != n {
							t.Fatalf("stream ended after %d accesses, want %d", i, n)
						}
						return
					}
					for j := range gb[:k] {
						if gb[j] != wb[j] {
							t.Fatalf("access %d = %+v, oracle %+v", i+j, gb[j], wb[j])
						}
					}
					i += k
				}
			})
		}
	}
}

// TestStreamInterleavedFillNext mixes Next calls and Fill calls of
// uneven sizes on one stream: the sequence must still be the oracle's.
func TestStreamInterleavedFillNext(t *testing.T) {
	const n = 50_000
	for _, w := range setUpAll(t) {
		t.Run(w.Name(), func(t *testing.T) {
			want := oracleStream(w, rand.New(rand.NewSource(5)), n)
			s := w.Stream(rand.New(rand.NewSource(5)), n).(BatchStream)
			buf := make([]Access, 997)
			got := 0
			check := func(a Access) {
				t.Helper()
				ref, ok := want.Next()
				if !ok || a != ref {
					t.Fatalf("access %d = %+v, oracle %+v (ok %v)", got, a, ref, ok)
				}
				got++
			}
			for round := 0; got < n; round++ {
				for k := 0; k < round%5; k++ {
					if a, ok := s.Next(); ok {
						check(a)
					}
				}
				m := s.Fill(buf[:1+round*37%len(buf)])
				for _, a := range buf[:m] {
					check(a)
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatal("stream ran past its length")
			}
			if s.Fill(buf) != 0 {
				t.Fatal("Fill of an exhausted stream returned accesses")
			}
		})
	}
}

// splitmix64 is a Source64 whose outputs do not follow math/rand's
// lagged-Fibonacci recurrence.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.x = uint64(seed) }

// TestDrawsFollowSource pins draws to consecutive rng.Uint64 outputs:
// by the recurrence for math/rand's own source, by refilling from the
// rng for any other Source64, whose check block must fail and keep
// draws on the rng for good.
func TestDrawsFollowSource(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   func() rand.Source64
		exact bool
	}{
		{"math-rand", func() rand.Source64 { return rand.NewSource(11).(rand.Source64) }, true},
		{"splitmix64", func() rand.Source64 { return &splitmix64{x: 11} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var d draws
			d.init(rand.New(tc.src()))
			ref := rand.New(tc.src())
			for i := 0; i < 20*rngLen; i++ {
				d.reserve()
				if got, want := d.u64(), ref.Uint64(); got != want {
					t.Fatalf("draw %d = %#x, rng.Uint64 %#x", i, got, want)
				}
			}
			if d.exact != tc.exact {
				t.Fatalf("draws.exact = %v, want %v", d.exact, tc.exact)
			}
		})
	}
}

// TestDrawsIntnMatchesRand checks intn against rand.Intn, bound by
// bound, including bounds that redraw almost half the time and powers
// of two.
func TestDrawsIntnMatchesRand(t *testing.T) {
	bounds := []uint32{1, 2, 5, 8, 10, 24, 1000, 1<<30 + 1, 3 << 29, 1<<31 - 1, 1 << 30}
	var d draws
	d.init(rand.New(rand.NewSource(3)))
	ref := rand.New(rand.NewSource(3))
	for i := 0; i < 50*rngLen; i++ {
		n := bounds[i%len(bounds)]
		d.reserve()
		if got, want := d.intn(n), ref.Intn(int(n)); got != want {
			t.Fatalf("draw %d: intn(%d) = %d, rand.Intn %d", i, n, got, want)
		}
	}
}

// BenchmarkStream measures each workload's generator alone: ns/op is
// ns per access, drained through sim.Run's batch size. The stream is
// built before the timer, so the loop must report 0 allocs/op.
func BenchmarkStream(b *testing.B) {
	for _, w := range setUpAll(b) {
		b.Run(w.Name(), func(b *testing.B) {
			s := w.Stream(rand.New(rand.NewSource(2)), uint64(b.N)).(BatchStream)
			buf := make([]Access, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for s.Fill(buf) > 0 {
			}
		})
	}
}
