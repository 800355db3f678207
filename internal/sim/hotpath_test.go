package sim

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// mutStream replays a fixed access list through the legacy Next
// interface, running side-effect hooks before chosen indices — the
// mid-stream page-table mutations the walk cache must observe.
type mutStream struct {
	accs  []workloads.Access
	hooks map[int]func()
	i     int
}

func (s *mutStream) Next() (workloads.Access, bool) {
	if s.i >= len(s.accs) {
		return workloads.Access{}, false
	}
	if h := s.hooks[s.i]; h != nil {
		h()
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}

// caEnv builds a CA-paging environment: nested with CA in both
// dimensions, or native.
func caEnv(t testing.TB, nested bool) *workloads.Env {
	if nested {
		return virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	}
	return nativeEnv(t, osim.CAPolicy{})
}

// TestWalkCacheInvalidation pins the self-invalidation contract for
// every backend, native and nested: after pages are unmapped
// mid-stream, the memoized walk must miss (the generation moved) and
// the unmapped pages must surface as counted demand faults on the
// retry path — a stale cache would keep serving the old translations
// with Faults = 0. The cached and uncached runs must agree on every
// counter. Run drains streams accessBatch accesses at a time, so the
// unmap hook sits at a batch boundary: the sweeps before it have been
// simulated (and memoized) when it fires.
func TestWalkCacheInvalidation(t *testing.T) {
	const pages = 512
	unmapped := []uint64{3, 100, 200}
	for _, backend := range translation.Names() {
		for _, nested := range []bool{false, true} {
			dim := "native"
			if nested {
				dim = "nested"
			}
			t.Run(backend+"/"+dim, func(t *testing.T) {
				run := func(noCache bool) Result {
					env := caEnv(t, nested)
					// 4K mappings so the 512-page sweep exceeds TLB reach
					// and every access exercises the translate path.
					env.Kernel.THPEnabled = false
					v, err := env.MMap(pages * addr.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					if err := env.Populate(v); err != nil {
						t.Fatal(err)
					}
					var accs []workloads.Access
					for sweep := 0; sweep < accessBatch/pages+1; sweep++ {
						for i := uint64(0); i < pages; i++ {
							accs = append(accs, workloads.Access{VA: v.Start.Add(i * addr.PageSize)})
						}
					}
					hooks := map[int]func(){accessBatch: func() {
						for _, i := range unmapped {
							if _, _, ok := env.Proc.PT.Unmap(v.Start.Add(i * addr.PageSize)); !ok {
								t.Fatal("unmap target not mapped")
							}
						}
					}}
					res, err := Run(env, &mutStream{accs: accs, hooks: hooks}, Config{Backend: backend, NoWalkCache: noCache})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				cached := run(false)
				if cached.Faults != uint64(len(unmapped)) {
					t.Fatalf("faults = %d, want %d (a stale walk cache would still serve the unmapped pages)",
						cached.Faults, len(unmapped))
				}
				if uncached := run(true); cached != uncached {
					t.Fatalf("cached and uncached results differ:\n%+v\n%+v", cached, uncached)
				}
			})
		}
	}
}

// TestWalkCacheOnOffMatches pins that the walk cache is a pure
// execution optimization: a real workload stream yields the same
// Result with the memo on and off, for every translation backend,
// native and nested, and for the paged backend's scheme emulation,
// its SpOT confidence ablation and (nested) shadow paging — the
// configurations the translation experiments run.
func TestWalkCacheOnOffMatches(t *testing.T) {
	type variant struct {
		name       string
		cfg        Config
		nestedOnly bool
	}
	variants := []variant{
		{name: "schemes", cfg: Config{EnableSchemes: true}},
		{name: "schemes-noconfidence", cfg: Config{EnableSchemes: true, SpotNoConfidence: true}},
		{name: "shadow", cfg: Config{ShadowPaging: true}, nestedOnly: true},
	}
	for _, b := range translation.Names() {
		variants = append(variants, variant{name: b, cfg: Config{Backend: b}})
	}
	for _, nested := range []bool{false, true} {
		for _, w := range []workloads.Workload{workloads.NewPageRank(), workloads.NewHashJoin()} {
			env, dim := caEnv(t, nested), "native"
			if nested {
				dim = "nested"
			}
			if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				if v.nestedOnly && !nested {
					continue
				}
				t.Run(dim+"/"+w.Name()+"/"+v.name, func(t *testing.T) {
					run := func(noCache bool) Result {
						cfg := v.cfg
						cfg.NoWalkCache = noCache
						res, err := Run(env, w.Stream(rand.New(rand.NewSource(2)), 20_000), cfg)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					on, off := run(false), run(true)
					if on != off {
						t.Fatalf("walk cache changed the result:\non  %+v\noff %+v", on, off)
					}
					if on.Misses == 0 {
						t.Fatal("stream took no TLB misses — the walk path was never exercised")
					}
				})
			}
		}
	}
}

// TestRunZeroAllocs pins the zero-allocation property of the
// steady-state access loop for every translation backend, schemes
// included on the default one: once the machine is warm, step must not
// touch the heap. The tracing layer must preserve it in both disabled
// states — never attached, and attached then detached — so
// instrumentation really is branch-only when off.
func TestRunZeroAllocs(t *testing.T) {
	for _, backend := range translation.Names() {
		for _, tc := range []struct {
			name   string
			detach bool
		}{
			{"nil tracer", false},
			{"attached then detached", true},
		} {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
				w := workloads.NewPageRank()
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
				accs := benchAccesses(t, w, 1<<14)
				cfg := Config{Backend: backend}
				if backend == translation.BackendPaged {
					cfg.EnableSchemes = true
				}
				m := warmMachine(t, env, cfg, accs)
				defer m.be.Close()
				if tc.detach {
					tr := trace.New()
					env.SetTracer(tr)
					m.setTracer(tr)
					// A full pass: backends with a non-TLB fast path (ds
					// serves in-segment accesses by bare bounds check)
					// only reach instrumented hardware on the tail of
					// accesses outside it.
					for j := range accs {
						if err := m.step(accs[j]); err != nil {
							t.Fatal(err)
						}
					}
					if tr.TotalEvents() == 0 {
						t.Fatal("attached tracer saw nothing; detach case would be vacuous")
					}
					env.SetTracer(nil)
					m.setTracer(nil)
				}
				i := 0
				avg := testing.AllocsPerRun(len(accs), func() {
					if err := m.step(accs[i%len(accs)]); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if avg != 0 {
					t.Fatalf("steady-state step allocates %.2f objects per access, want 0", avg)
				}
			})
		}
	}
}

// TestRepeatRunReusesWalkCache pins the walk cache's pooled lifetime:
// Run returns the 3 MiB array when it finishes, so a repeat Run on the
// same environment allocates almost nothing and reports the same
// result. sync.Pool promises no reuse — a collection empties it, each
// P keeps its own slot, and the race detector drops Puts at random —
// so GC is held off while measuring and the least allocating of a few
// repeats must stay under the limit. Without the pool every repeat
// allocates the whole array.
func TestRepeatRunReusesWalkCache(t *testing.T) {
	env := nativeEnv(t, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() (Result, uint64) {
		stream := w.Stream(rand.New(rand.NewSource(2)), 20_000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(env, stream, Config{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	first, _ := run()
	const limit = 256 << 10
	least := uint64(math.MaxUint64)
	for try := 0; try < 8 && least >= limit; try++ {
		res, bytes := run()
		if res != first {
			t.Fatalf("repeat run %d differs:\nfirst  %+v\nrepeat %+v", try, first, res)
		}
		least = min(least, bytes)
	}
	if least >= limit {
		t.Fatalf("a repeat Run allocates %d bytes, want under %d (the walk-cache array was not reused)", least, limit)
	}
}

// nextOnlyStream hides a stream's native Fill, forcing Run through the
// Next-draining compatibility adapter.
type nextOnlyStream struct{ s workloads.Stream }

func (n nextOnlyStream) Next() (workloads.Access, bool) { return n.s.Next() }

// TestBatchedRunMatchesNextOnly runs every workload once through the
// native batched path and once through the legacy Next adapter: the
// two Results must be identical field for field — batching is an
// execution detail, never a semantic one.
func TestBatchedRunMatchesNextOnly(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			run := func(adapter bool) Result {
				env := nativeEnv(t, osim.CAPolicy{})
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
				var s workloads.Stream = w.Stream(rand.New(rand.NewSource(2)), 30_000)
				if adapter {
					s = nextOnlyStream{s}
				}
				res, err := Run(env, s, Config{EnableSchemes: true})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if batched, legacy := run(false), run(true); batched != legacy {
				t.Fatalf("batched run diverged from Next-only run:\n%+v\n%+v", batched, legacy)
			}
		})
	}
}
