package workloads

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/virt"
)

// popSnapshot captures every piece of simulator state the range-fault
// path could possibly disturb: kernel clocks, the full Stats structs,
// the fault-event sequence, every page-table leaf (VA, PTE flags
// included, span), and per-VMA accounting — in both translation
// dimensions when virtualized.
type popSnapshot struct {
	clock      uint64
	stats      osim.Stats
	faults     []trace.Event
	leaves     []pagetable.Leaf
	vmas       [][4]uint64
	hostClock  uint64
	hostStats  osim.Stats
	hostFaults []trace.Event
	hostLeaves []pagetable.Leaf
}

// traceFaults gives each kernel of env its own tracer, so
// snapshotEnv can recover each kernel's fault events in order.
func traceFaults(env *Env) {
	env.Kernel.SetTracer(trace.New())
	if env.VM != nil {
		env.VM.Host.SetTracer(trace.New())
	}
}

// faultEvents returns k's fault events (kind, va, lat_ns, clock) in
// emission order, with the tracer's sequence stamps cleared: Stats keeps
// only a latency histogram, so the order of faults is pinned here.
func faultEvents(t testing.TB, k *osim.Kernel) []trace.Event {
	t.Helper()
	if k.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d events; the fault sequence is incomplete", k.Tracer.Dropped())
	}
	var out []trace.Event
	for _, e := range k.Tracer.Events() {
		if e.Kind <= trace.EvFaultEager {
			out = append(out, trace.Event{Kind: e.Kind, A: e.A, B: e.B, C: e.C})
		}
	}
	return out
}

func snapshotEnv(t testing.TB, env *Env) popSnapshot {
	s := popSnapshot{clock: env.Kernel.Clock, stats: env.Kernel.Stats, faults: faultEvents(t, env.Kernel)}
	env.Proc.PT.Visit(func(l pagetable.Leaf) { s.leaves = append(s.leaves, l) })
	env.Proc.VMAs.Visit(func(v *vma.VMA) {
		s.vmas = append(s.vmas, [4]uint64{uint64(v.Start), v.Pages(), v.MappedPages, v.TouchedPages()})
	})
	if env.VM != nil {
		s.hostClock = env.VM.Host.Clock
		s.hostStats = env.VM.Host.Stats
		s.hostFaults = faultEvents(t, env.VM.Host)
		env.VM.HostProc.PT.Visit(func(l pagetable.Leaf) { s.hostLeaves = append(s.hostLeaves, l) })
	}
	return s
}

// nestedEnv builds a VM (experiment-sized host and guest) with the same
// placement policy in both dimensions.
func nestedEnv(t testing.TB, pl func() osim.Placement) *Env {
	t.Helper()
	host := zone.NewMachine(zone.Config{ZonePages: []uint64{
		160 * addr.MaxOrderPages, 160 * addr.MaxOrderPages,
	}})
	hk := osim.NewKernel(host, pl())
	vm, err := virt.New(hk, virt.Config{
		MemBytes:    768 << 20,
		GuestZones:  []uint64{96 * addr.MaxOrderPages, 96 * addr.MaxOrderPages},
		GuestPolicy: pl(),
	})
	if err != nil {
		t.Fatalf("virt.New: %v", err)
	}
	return NewVirtEnv(vm, 0)
}

// TestPopulateRangeMatchesTouchLoop pins the range-fault batching
// contract: populating through PopulateRange leaves the simulator in a
// state indistinguishable from the historical per-page Touch loop —
// same page-table leaves (flags included), same fault counters and
// latency histograms, same fault-event sequences, same logical clocks,
// same VMA accounting — under every placement policy, with and without
// clock-gated daemons, native and nested.
func TestPopulateRangeMatchesTouchLoop(t *testing.T) {
	cases := []struct {
		name  string
		build func(t testing.TB) *Env
	}{
		{"native-thp", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.DefaultPolicy{}), 0)
		}},
		{"native-ingens", func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewIngens(k))
			return env
		}},
		{"native-ca", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.CAPolicy{}), 0)
		}},
		{"native-eager", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.EagerPolicy{}), 0)
		}},
		{"native-ranger", func(t testing.TB) *Env {
			k := osim.NewKernel(machineFor(t), osim.DefaultPolicy{})
			env := NewNativeEnv(k, 0)
			env.Daemons = append(env.Daemons, daemon.NewRanger(k))
			return env
		}},
		{"native-ideal", func(t testing.TB) *Env {
			return NewNativeEnv(osim.NewKernel(machineFor(t), osim.NewIdealPolicy()), 0)
		}},
		{"nested-ca", func(t testing.TB) *Env {
			return nestedEnv(t, func() osim.Placement { return osim.CAPolicy{} })
		}},
		{"nested-thp-ingens", func(t testing.TB) *Env {
			env := nestedEnv(t, func() osim.Placement { return osim.DefaultPolicy{} })
			env.Daemons = append(env.Daemons, daemon.NewIngens(env.Kernel))
			return env
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(noRange bool) popSnapshot {
				env := c.build(t)
				env.NoRangeFault = noRange
				traceFaults(env)
				if err := NewSVM().Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatalf("setup (NoRangeFault=%v): %v", noRange, err)
				}
				return snapshotEnv(t, env)
			}
			want, got := run(true), run(false)
			if len(want.faults) == 0 {
				t.Fatal("setup traced no guest fault events")
			}
			if want.clock != got.clock {
				t.Errorf("guest clock: per-page %d, range %d", want.clock, got.clock)
			}
			if want.hostClock != got.hostClock {
				t.Errorf("host clock: per-page %d, range %d", want.hostClock, got.hostClock)
			}
			if !reflect.DeepEqual(want.stats, got.stats) {
				t.Errorf("guest stats diverge:\nper-page %+v\nrange    %+v", want.stats, got.stats)
			}
			if !reflect.DeepEqual(want.hostStats, got.hostStats) {
				t.Errorf("host stats diverge:\nper-page %+v\nrange    %+v", want.hostStats, got.hostStats)
			}
			diffFaults(t, "guest", want.faults, got.faults)
			diffFaults(t, "host", want.hostFaults, got.hostFaults)
			if !reflect.DeepEqual(want.vmas, got.vmas) {
				t.Errorf("VMA accounting diverges:\nper-page %v\nrange    %v", want.vmas, got.vmas)
			}
			diffLeaves(t, "guest", want.leaves, got.leaves)
			diffLeaves(t, "host", want.hostLeaves, got.hostLeaves)
		})
	}
}

func diffFaults(t *testing.T, dim string, want, got []trace.Event) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s faults: per-page %d events, range %d", dim, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s fault %d: per-page %+v, range %+v", dim, i, want[i], got[i])
			return
		}
	}
}

func diffLeaves(t *testing.T, dim string, want, got []pagetable.Leaf) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s page table: per-page %d leaves, range %d", dim, len(want), len(got))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s leaf %d: per-page %+v, range %+v", dim, i, want[i], got[i])
			return
		}
	}
}

// TestPopulateRangeZeroAllocs pins the steady-state cost of the range
// path: re-populating an already-mapped VMA (the all-present fast case,
// one quiet run per leaf table) must not touch the heap.
func TestPopulateRangeZeroAllocs(t *testing.T) {
	k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
	env := NewNativeEnv(k, 0)
	v, err := env.MMap(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.PopulateRange(v, v.Start, v.Size()); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if err := env.PopulateRange(v, v.Start, v.Size()); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state PopulateRange allocates %.2f objects per call, want 0", avg)
	}
}

// TestUnhogRestoresFreeMemory pins that both hog variants release
// exactly what they pinned: free-page count, the full free-block
// histogram, and the buddy invariants (including the non-empty-order
// bitmap) all return to their pre-hog state.
func TestUnhogRestoresFreeMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		hog  func(m *zone.Machine) []HogExtent
	}{
		{"hog", func(m *zone.Machine) []HogExtent { return Hog(m, 0.25, rand.New(rand.NewSource(11))) }},
		{"hogfine", func(m *zone.Machine) []HogExtent { return HogFine(m, 0.25, rand.New(rand.NewSource(11))) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m := machineFor(t)
			free0 := m.FreePages()
			hist0 := m.FreeBlockHistogram()
			ext := tc.hog(m)
			if len(ext) == 0 {
				t.Fatal("hog pinned nothing")
			}
			if m.FreePages() == free0 {
				t.Fatal("hog did not reduce free memory")
			}
			Unhog(m, ext)
			if m.FreePages() != free0 {
				t.Fatalf("free pages %d after unhog, want %d", m.FreePages(), free0)
			}
			if hist := m.FreeBlockHistogram(); !reflect.DeepEqual(hist, hist0) {
				t.Fatalf("free-block histogram not restored:\nbefore %v\nafter  %v", hist0, hist)
			}
			for zi, z := range m.Zones {
				if err := z.Buddy.CheckInvariants(); err != nil {
					t.Fatalf("zone %d invariants after unhog: %v", zi, err)
				}
			}
		})
	}
}
