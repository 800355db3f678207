// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VI). Each driver builds the machines, runs the
// workloads under the configurations the paper compares, and returns a
// Table of the same rows/series the paper reports. The cmd/reproduce
// binary and the repository-root benchmarks call into these drivers.
//
// Scaling: footprints, machine size, and TLB reach are all ~1/512 of
// the paper's testbed (see DESIGN.md §5), so the *shape* of every
// result — who wins, by what factor, where behaviour breaks — is the
// comparison target, not absolute values. EXPERIMENTS.md records
// paper-vs-measured for each driver.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			// Ragged rows can be wider than the header; cells beyond
			// the last header column render unpadded.
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// --- machine and configuration fixtures ---

const (
	// hostZoneBlocks is the per-zone size of the host machine in
	// MAX_ORDER blocks: 2 zones x 640 MiB = 1.25 GiB, the paper's
	// 2-socket 256 GB box scaled.
	hostZoneBlocks = 160
	// guestZoneBlocks: 2 x 384 MiB guest NUMA zones in a 768 MiB VM.
	guestZoneBlocks = 96
	// bootReserveBlocks models kernel/firmware reservations per zone.
	bootReserveBlocks = 1
	// vmBytes is the guest physical memory size.
	vmBytes = 768 << 20
)

// newHostMachine builds the standard two-zone host.
func newHostMachine(numaOff bool, sorted bool) *zone.Machine {
	if numaOff {
		return zone.NewMachine(zone.Config{
			ZonePages:      []uint64{2 * hostZoneBlocks * addr.MaxOrderPages},
			SortedMaxOrder: sorted,
		})
	}
	return zone.NewMachine(zone.Config{
		ZonePages:      []uint64{hostZoneBlocks * addr.MaxOrderPages, hostZoneBlocks * addr.MaxOrderPages},
		SortedMaxOrder: sorted,
	})
}

// PolicyName selects one of the paper's memory-management
// configurations for native runs.
type PolicyName string

// The compared configurations (§VI-A).
const (
	PolicyTHP    PolicyName = "thp"    // default paging with THP
	PolicyIngens PolicyName = "ingens" // async utilisation-gated promotion
	PolicyCA     PolicyName = "ca"     // contiguity-aware paging
	PolicyEager  PolicyName = "eager"  // pre-allocation
	PolicyRanger PolicyName = "ranger" // async defragmentation
	PolicyIdeal  PolicyName = "ideal"  // offline best-fit bound
)

// AllPolicies lists the Fig. 7 comparison set in presentation order.
func AllPolicies() []PolicyName {
	return []PolicyName{PolicyTHP, PolicyIngens, PolicyCA, PolicyEager, PolicyRanger, PolicyIdeal}
}

// newNativeKernel builds a kernel + daemons for the named policy.
// The CA configuration also enables the sorted MAX_ORDER list, as the
// paper's prototype does.
func newNativeKernel(pr Params, p PolicyName, numaOff bool) (*osim.Kernel, []workloads.Daemon) {
	sorted := p == PolicyCA
	m := newHostMachine(numaOff, sorted)
	var k *osim.Kernel
	var ds []workloads.Daemon
	switch p {
	case PolicyTHP:
		k = osim.NewKernel(m, osim.DefaultPolicy{})
	case PolicyIngens:
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewIngens(k))
	case PolicyCA:
		k = osim.NewKernel(m, osim.CAPolicy{})
	case PolicyEager:
		k = osim.NewKernel(m, osim.EagerPolicy{})
	case PolicyRanger:
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewRanger(k))
	case PolicyIdeal:
		k = osim.NewKernel(m, osim.NewIdealPolicy())
	default:
		panic("experiments: unknown policy " + string(p))
	}
	k.BootReserve(bootReserveBlocks)
	k.SetTracer(pr.Tracer)
	return k, ds
}

// placementFor returns the osim placement for guest/host kernels.
func placementFor(p PolicyName) osim.Placement {
	switch p {
	case PolicyCA:
		return osim.CAPolicy{}
	case PolicyEager:
		return osim.EagerPolicy{}
	case PolicyIdeal:
		return osim.NewIdealPolicy()
	default:
		return osim.DefaultPolicy{}
	}
}

// newVM builds the standard VM: guest and host kernels with the given
// policies (the paper applies the same policy in both dimensions).
func newVM(pr Params, guest, host PolicyName) (*virt.VM, *osim.Kernel, error) {
	hk := osim.NewKernel(newHostMachine(false, host == PolicyCA), placementFor(host))
	hk.BootReserve(bootReserveBlocks)
	vm, err := virt.New(hk, virt.Config{
		MemBytes:         vmBytes,
		GuestZones:       []uint64{guestZoneBlocks * addr.MaxOrderPages, guestZoneBlocks * addr.MaxOrderPages},
		GuestPolicy:      placementFor(guest),
		GuestSorted:      guest == PolicyCA,
		GuestBootReserve: bootReserveBlocks,
	})
	if err != nil {
		return nil, nil, err
	}
	vm.SetTracer(pr.Tracer)
	return vm, hk, nil
}

// ContigStats is one configuration's contiguity measurement.
type ContigStats struct {
	Cov32, Cov128 float64
	Maps99        int
}

func contigOf(ms []metrics.Mapping) ContigStats {
	return ContigStats{
		Cov32:  metrics.CoverageTopN(ms, 32),
		Cov128: metrics.CoverageTopN(ms, 128),
		Maps99: metrics.MappingsFor(ms, 0.99),
	}
}

// settleDaemons drives the background daemons through enough epochs of
// logical time to converge (post-population execution window), as the
// paper's measurements average over the application's execution.
func settleDaemons(k *osim.Kernel, ds []workloads.Daemon, epochs int) {
	workloads.SettleDaemons(k, ds, epochs)
}

// runNativeContig runs one workload under one policy and returns its
// final contiguity plus the kernel for further inspection. The process
// is left alive; callers may exit it.
func runNativeContig(p Params, w workloads.Workload, pol PolicyName) (ContigStats, *osim.Kernel, *workloads.Env, error) {
	k, ds := newNativeKernel(p, pol, false)
	env := workloads.NewNativeEnv(k, 0)
	env.Daemons = ds
	tr := p.Tracer
	start := tr.Start()
	if err := w.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
		return ContigStats{}, nil, nil, fmt.Errorf("%s/%s: %w", w.Name(), pol, err)
	}
	tr.EmitPhase(string(pol)+"/"+w.Name()+"/setup", start)
	start = tr.Start()
	settleDaemons(k, ds, p.SettleEpochs)
	tr.EmitPhase(string(pol)+"/"+w.Name()+"/settle", start)
	ms := metrics.FromPageTable(env.Proc.PT)
	return contigOf(ms), k, env, nil
}

// recycleKernel returns a finished cell's machine to the zone
// construction pool. Only call once every reference into the machine —
// processes, envs, the kernel itself — is dead to the caller; metrics
// snapshots and table rows hold copies and are safe.
func recycleKernel(k *osim.Kernel) {
	k.Machine.Recycle()
}

// recycleVM pools both of a finished cell's machines (guest and host).
func recycleVM(vm *virt.VM) {
	vm.Guest.Machine.Recycle()
	vm.Host.Machine.Recycle()
}

// workloadNames returns the five paper workload names in order.
func workloadNames() []string {
	out := make([]string, 0, 5)
	for _, w := range workloads.All() {
		out = append(out, w.Name())
	}
	return out
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }
