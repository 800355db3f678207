package workloads

import (
	"errors"
	"fmt"
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
// snapshotEnv can recover each kernel's fault events in order. The
// machines stay untraced: their buddy events would only repeat what
// the leaves and Stats already pin, at several times the cost.
func traceFaults(env *Env) {
	env.Kernel.Tracer = trace.New()
	if env.VM != nil {
		env.VM.Host.Tracer = trace.New()
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

// touchLoop is the per-page reference population PopulateRange must
// match: Touch every page in order, polling every daemon after every
// touch.
func touchLoop(e *Env, v *vma.VMA, start addr.VirtAddr, pages uint64) error {
	for i := uint64(0); i < pages; i++ {
		va := start.Add(i * addr.PageSize)
		if err := e.Touch(va, true); err != nil {
			return fmt.Errorf("populate %v at +%d: %w", v, uint64(va-v.Start), err)
		}
	}
	return nil
}

// pollCounter is a daemon that only counts its polls. The per-page
// loop polls every daemon after every touch; the batched path must
// deliver the same polls through its MaybeN catch-up.
type pollCounter struct{ polls uint64 }

func (p *pollCounter) Maybe()          { p.polls++ }
func (p *pollCounter) MaybeN(n uint64) { p.polls += n }

// popCase is one environment the range-fault contract is checked in.
type popCase struct {
	name  string
	build func(t testing.TB) *Env
}

// popCases are every placement policy native, with and without
// clock-gated daemons, and nested.
func popCases() []popCase {
	return []popCase{
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
}

// touchChunks is the aging campaign's touch shape: a tenant VMA only
// half populated, then re-touched in quarter-size chunks at random
// page offsets with a daemon settle window between touches, so the
// chunks mix present runs, demand faults and daemon-moved pages.
func touchChunks(env *Env) error {
	const pages, chunk = 4096, 1024
	v, err := env.MMap(pages * addr.PageSize)
	if err != nil {
		return err
	}
	if err := env.PopulatePrefix(v, pages/2*addr.PageSize); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		start := uint64(rng.Int63n(pages - chunk))
		if err := env.PopulateRange(v, v.Start.Add(start*addr.PageSize), chunk*addr.PageSize); err != nil {
			return err
		}
		SettleDaemons(env.Kernel, env.Daemons, 2)
	}
	return nil
}

// populateOOM allocates MAX_ORDER blocks from the kernel's machine
// until at most 6 MiB is free and then populates an 8 MiB VMA, which
// runs out of memory partway through. Eager placement populates inside MMap, so
// under it the OOM surfaces there instead.
func populateOOM(env *Env) error {
	m := env.Kernel.Machine
	for m.FreePages() > 512+addr.MaxOrderPages {
		if _, err := m.AllocBlock(0, addr.MaxOrder); err != nil {
			break
		}
	}
	v, err := env.MMap(8 << 20)
	if err != nil {
		return err
	}
	return env.Populate(v)
}

// popDrive is one population scenario run in every popCases env.
type popDrive struct {
	name  string
	drive func(env *Env) error
	// traced also compares the fault-event sequences. The svm Setup and
	// the aging shapes are traced; the other Setups take ~10^5 4K
	// faults under Ingens, whose tracing costs seconds under -race,
	// and their leaves, Stats and clocks still pin the outcome.
	traced bool
	// oom marks a drive that must end in ErrOOM.
	oom bool
}

// TestPopulateRangeMatchesTouchLoop pins the range-fault batching
// contract: populating through PopulateRange leaves the simulator in a
// state indistinguishable from the per-page Touch loop — same
// page-table leaves (flags included), same fault counters and latency
// histograms, same fault-event sequences, same logical clocks, same
// VMA accounting, same daemon polls, same error — under every
// placement policy, with and without clock-gated daemons, native and
// nested. Each environment runs every workload's Setup, the aging
// campaign's partial re-touch, and an OOM-interrupted populate; the
// fault-event sequences are compared where popDrive.traced is set.
func TestPopulateRangeMatchesTouchLoop(t *testing.T) {
	drives := []popDrive{
		{name: "touch-chunks", drive: touchChunks, traced: true},
		{name: "oom", drive: populateOOM, traced: true, oom: true},
	}
	for _, w := range All() {
		name := w.Name()
		drives = append(drives, popDrive{name: name, traced: name == "svm", drive: func(env *Env) error {
			return ByName(name).Setup(env, rand.New(rand.NewSource(1)))
		}})
	}
	for _, c := range popCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel() // every case builds its own machines and kernels
			for _, d := range drives {
				d := d
				t.Run(d.name, func(t *testing.T) {
					run := func(ref bool) (popSnapshot, uint64, error) {
						env := c.build(t)
						polls := &pollCounter{}
						env.Daemons = append(env.Daemons, polls)
						if ref {
							env.populateRef = touchLoop
						}
						if d.traced {
							traceFaults(env)
						}
						err := d.drive(env)
						return snapshotEnv(t, env), polls.polls, err
					}
					want, wantPolls, wantErr := run(true)
					got, gotPolls, gotErr := run(false)
					if d.oom != errors.Is(wantErr, osim.ErrOOM) {
						t.Fatalf("per-page run: err = %v, want OOM %v", wantErr, d.oom)
					}
					if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
						t.Fatalf("error: per-page %v, range %v", wantErr, gotErr)
					}
					if wantPolls != gotPolls {
						t.Errorf("daemon polls: per-page %d, range %d", wantPolls, gotPolls)
					}
					if d.traced && !d.oom && len(want.faults) == 0 {
						t.Fatal("traced no guest fault events")
					}
					compareSnapshots(t, want, got)
				})
			}
		})
	}
}

// compareSnapshots reports every way the range-path snapshot got
// differs from the per-page reference want.
func compareSnapshots(t *testing.T, want, got popSnapshot) {
	t.Helper()
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
