package sim

import (
	"math/rand"
	"testing"

	"repro/internal/osim"
	"repro/internal/workloads"
)

// benchAccesses pre-generates n stream accesses so the benchmark loops
// measure the simulator, not stream generation. The workload must
// already be set up on env.
func benchAccesses(b testing.TB, w workloads.Workload, n uint64) []workloads.Access {
	b.Helper()
	s := workloads.Batched(w.Stream(rand.New(rand.NewSource(2)), n))
	buf := make([]workloads.Access, n)
	total := 0
	for total < len(buf) {
		k := s.Fill(buf[total:])
		if k == 0 {
			break
		}
		total += k
	}
	return buf[:total]
}

// warmMachine builds a machine and runs every access through it once,
// resolving demand faults and filling the TLB, walk cache, and scheme
// state outside the benchmark timer.
func warmMachine(b testing.TB, env *workloads.Env, cfg Config, accs []workloads.Access) *machine {
	b.Helper()
	m, err := newMachine(env, cfg.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range accs {
		if err := m.step(a); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkRunNative measures the steady-state per-access cost of the
// native hot loop (TLB probe + memoized walk + scheme emulation). It
// must report 0 allocs/op.
func BenchmarkRunNative(b *testing.B) {
	env := nativeEnv(b, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	accs := benchAccesses(b, w, 1<<16)
	m := warmMachine(b, env, Config{EnableSchemes: true}, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.step(accs[i%len(accs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNested is BenchmarkRunNative for the virtualized (2D
// nested walk) path. It must report 0 allocs/op.
func BenchmarkRunNested(b *testing.B) {
	env := virtEnv(b, osim.CAPolicy{}, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	accs := benchAccesses(b, w, 1<<16)
	m := warmMachine(b, env, Config{EnableSchemes: true}, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.step(accs[i%len(accs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkCached isolates a warm walk-cache hit against the full
// nested resolve it memoizes (run with -bench=WalkCached and compare
// against NoWalkCache by flipping the config below).
func BenchmarkWalkCached(b *testing.B) {
	env := virtEnv(b, osim.CAPolicy{}, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	accs := benchAccesses(b, w, 1<<16)
	m := warmMachine(b, env, Config{}, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := m.be.Translate(accs[i%len(accs)].VA); !w.OK {
			b.Fatal("unresolvable access in warmed benchmark")
		}
	}
}
