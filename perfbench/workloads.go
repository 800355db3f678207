package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"repro/internal/aging"
	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/sim"
	"repro/internal/tracein"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// instance is one round of a workload after set-up: run is the timed
// phase and returns the ops it completed; check runs after the clock
// stops, verifies the outputs (audits), returns the digest of every
// deterministic output, and releases the machines.
type instance interface {
	run() (ops uint64, err error)
	check() (digest string, err error)
}

// workload is one benchmark input set. setup builds a round's inputs
// and machines from the seed; a non-nil probe marks a traced round.
type workload struct {
	name  string
	setup func(seed int64, p *probe) (instance, error)
}

var allWorkloads = []workload{
	{"replay-churn", setupReplay},
	{"translate-steady", setupTranslate},
	{"aging-daemons", setupAging},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Host machine geometry, as internal/experiments builds it: two
// 640 MiB zones with one boot-reserved MAX_ORDER block each, and a
// 768 MiB guest of two 384 MiB zones.
const (
	hostZoneBlocks  = 160
	guestZoneBlocks = 96
	vmBytes         = 768 << 20
)

// hostMachine builds the standard two-zone host machine; sorted
// enables the sorted MAX_ORDER list CA paging uses.
func hostMachine(sorted bool) *zone.Machine {
	return zone.NewMachine(zone.Config{
		ZonePages:      []uint64{hostZoneBlocks * addr.MaxOrderPages, hostZoneBlocks * addr.MaxOrderPages},
		SortedMaxOrder: sorted,
	})
}

// hostKernel builds a host kernel with the given placement and boot
// reservations on a fresh host machine.
func hostKernel(pl osim.Placement, sorted bool) *osim.Kernel {
	k := osim.NewKernel(hostMachine(sorted), pl)
	k.BootReserve(1)
	return k
}

// bootPinned lists hostKernel's boot reservations for audits.
func bootPinned() []check.Extent {
	return []check.Extent{
		{PFN: 0, Pages: addr.MaxOrderPages},
		{PFN: hostZoneBlocks * addr.MaxOrderPages, Pages: addr.MaxOrderPages},
	}
}

// --- replay-churn ---

// The replay trace: the serving path of cmd/memsimd at its default
// shape (ca placement, daemons off, default zone size), two shards
// applied serially so the number measures the program, not scheduling.
const (
	replayEvents  = 250_000
	replayTenants = 8
	replayShards  = 2
)

type replayInstance struct {
	trace []byte
	eng   *tracein.Engine
	res   tracein.Result
	p     *probe
}

func setupReplay(seed int64, p *probe) (instance, error) {
	t0 := now()
	events := tracein.Synth(tracein.SynthConfig{Seed: seed, Events: replayEvents, Tenants: replayTenants})
	t1 := now()
	var buf bytes.Buffer
	if err := tracein.Encode(&buf, events, false); err != nil {
		return nil, fmt.Errorf("replay encode: %w", err)
	}
	t2 := now()
	if p != nil {
		p.synthNs += t1 - t0
		p.encodeNs += t2 - t1
		p.setupEvents += uint64(len(events))
	}
	eng, err := tracein.NewEngine(tracein.ReplayConfig{
		Shards: replayShards,
		Jobs:   1,
		Policy: check.PolicyCA,
		Tracer: p.tr(),
	})
	if err != nil {
		return nil, err
	}
	return &replayInstance{trace: buf.Bytes(), eng: eng, p: p}, nil
}

func (r *replayInstance) run() (uint64, error) {
	d, err := tracein.NewDecoder(bytes.NewReader(r.trace))
	if err != nil {
		return 0, err
	}
	if r.p == nil {
		err = r.eng.Replay(d)
	} else {
		err = r.eng.ReplayStream(r.p.timedNext(d))
	}
	r.res = r.eng.Result()
	return r.res.Events, err
}

func (r *replayInstance) check() (string, error) {
	defer r.eng.Close()
	if err := r.eng.Audit(); err != nil {
		return "", fmt.Errorf("replay audit at drain: %w", err)
	}
	if p := r.p; p != nil {
		p.replayEvents += r.res.Events
		p.replaySkipped += r.res.Skipped
		p.replayOOMs += r.res.OOMs
	}
	return r.res.Digest(), nil
}

// --- translate-steady ---

// translateStream is the access count of each config's measured
// stream: long enough that the TLB and SpOT reach their steady state
// and the fixed cost of building the hardware model is amortised.
const translateStream = 1_500_000

// translateConfig is one (workload, mode) cell: its environment after
// Setup, the machines to recycle, and its simulated result.
type translateConfig struct {
	w      workloads.Workload
	mode   string
	env    *workloads.Env
	kernel *osim.Kernel
	vm     *virt.VM
	res    sim.Result
}

type translateInstance struct {
	seed    int64
	configs []*translateConfig
	p       *probe
}

// The two modes: native runs default placement with THP off, the
// high-miss baseline; nested runs CA paging in guest and host with THP
// in both and the SpOT/vRMM/DS emulation on.
var translateModes = []string{"native", "nested"}

func setupTranslate(seed int64, p *probe) (instance, error) {
	in := &translateInstance{seed: seed, p: p}
	for _, mode := range translateModes {
		t0 := now()
		for _, w := range workloads.All() {
			c := &translateConfig{w: w, mode: mode}
			if mode == "nested" {
				host := hostKernel(osim.CAPolicy{}, true)
				vm, err := virt.New(host, virt.Config{
					MemBytes:         vmBytes,
					GuestZones:       []uint64{guestZoneBlocks * addr.MaxOrderPages, guestZoneBlocks * addr.MaxOrderPages},
					GuestPolicy:      osim.CAPolicy{},
					GuestSorted:      true,
					GuestBootReserve: 1,
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s vm: %w", w.Name(), mode, err)
				}
				c.vm = vm
				c.env = workloads.NewVirtEnv(vm, 0)
			} else {
				c.kernel = hostKernel(osim.DefaultPolicy{}, false)
				c.kernel.THPEnabled = false
				c.env = workloads.NewNativeEnv(c.kernel, 0)
			}
			c.env.SetTracer(p.tr())
			if err := w.Setup(c.env, rand.New(rand.NewSource(seed))); err != nil {
				return nil, fmt.Errorf("%s/%s setup: %w", w.Name(), mode, err)
			}
			in.configs = append(in.configs, c)
		}
		if p != nil {
			p.modeSetupNs[mode] += now() - t0
		}
	}
	return in, nil
}

func (in *translateInstance) run() (uint64, error) {
	var ops uint64
	for _, c := range in.configs {
		var stream workloads.Stream = c.w.Stream(rand.New(rand.NewSource(in.seed+1)), translateStream)
		var streamNs int64
		if p := in.p; p != nil {
			streamNs = p.streamNs
			stream = &timedStream{s: workloads.Batched(stream), p: p}
		}
		t0 := now()
		res, err := sim.Run(c.env, stream, sim.Config{EnableSchemes: c.mode == "nested"})
		if p := in.p; p != nil {
			key := c.w.Name() + "." + c.mode
			p.simNs[key] += now() - t0 - (p.streamNs - streamNs)
			p.simAccesses[key] += res.Accesses
		}
		ops += res.Accesses
		if err != nil {
			return ops, fmt.Errorf("%s/%s: %w", c.w.Name(), c.mode, err)
		}
		c.res = res
	}
	return ops, nil
}

func (in *translateInstance) check() (string, error) {
	h := sha256.New()
	for _, c := range in.configs {
		fmt.Fprintf(h, "%s/%s %+v\n", c.w.Name(), c.mode, c.res)
		if p := in.p; p != nil {
			p.simModes[c.mode] = addResult(p.simModes[c.mode], c.res)
		}
		if c.vm != nil {
			c.vm.Guest.Machine.Recycle()
			c.vm.Host.Machine.Recycle()
		} else {
			c.kernel.Machine.Recycle()
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// addResult sums the counters the per-layer metrics read.
func addResult(a, b sim.Result) sim.Result {
	a.Accesses += b.Accesses
	a.Misses += b.Misses
	a.WalkCycles += b.WalkCycles
	a.SpotCorrect += b.SpotCorrect
	a.SpotNoPred += b.SpotNoPred
	return a
}

// --- aging-daemons ---

// agingSteps is the churn horizon of each campaign: longer than
// figAging's 360 so every policy runs well past the fill phase into
// steady churn with a full page cache.
const agingSteps = 480

// agingPolicies are the campaigns of one round: ca (no daemons, the
// baseline), ingens (async promotion) and ranger (migration).
var agingPolicies = []string{"ca", "ingens", "ranger"}

// agingSeeds is how many campaign seeds each policy runs per round,
// derived from the round's seed: one campaign's cost depends on the
// few large tenants its seed draws, and averaging two keeps that
// input variance from dominating the run-to-run spread.
const agingSeeds = 2

// agingCampaign is one policy run on one campaign seed.
type agingCampaign struct {
	policy string
	seed   int64
	c      *aging.Campaign
	k      *osim.Kernel
	traj   *aging.Trajectory
}

type agingInstance struct {
	campaigns []*agingCampaign
}

// agingKernel builds a policy's kernel and private daemons, the way
// internal/experiments does for the parent and for each shard.
func agingKernel(m *zone.Machine, policy string, p *probe) (*osim.Kernel, []workloads.Daemon) {
	var k *osim.Kernel
	var ds []workloads.Daemon
	switch policy {
	case "ca":
		k = osim.NewKernel(m, osim.CAPolicy{})
	case "ingens":
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewIngens(k))
	case "ranger":
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewRanger(k))
	}
	k.SetTracer(p.tr())
	return k, p.wrapDaemons(ds, policy)
}

func setupAging(seed int64, p *probe) (instance, error) {
	in := &agingInstance{}
	for _, policy := range agingPolicies {
		policy := policy
		for i := int64(0); i < agingSeeds; i++ {
			k, ds := agingKernel(hostMachine(policy == "ca"), policy, p)
			k.BootReserve(1)
			ac := &agingCampaign{policy: policy, seed: seed*agingSeeds + i, k: k}
			// figAging's campaign shape: up to ten tenants of as much as
			// 96 MiB, 16 MiB dataset files every five steps, one shard
			// per host zone stepped serially.
			ac.c = aging.New(k, ds, aging.Config{
				Seed:              ac.seed,
				Steps:             agingSteps,
				SnapshotEvery:     10,
				MaxTenants:        10,
				MaxFootprintPages: 24576,
				ZipfS:             1.1,
				FilePages:         4096,
				CacheChurnEvery:   5,
				Shards:            2,
				ShardJobs:         1,
				Pinned:            bootPinned(),
				NewShardKernel: func(view *zone.Machine, _ int) (*osim.Kernel, []workloads.Daemon) {
					return agingKernel(view, policy, p)
				},
			})
			in.campaigns = append(in.campaigns, ac)
		}
	}
	return in, nil
}

func (in *agingInstance) run() (uint64, error) {
	var ops uint64
	for _, ac := range in.campaigns {
		traj, err := ac.c.Run()
		if err != nil {
			return ops, fmt.Errorf("aging %s seed %d: %w", ac.policy, ac.seed, err)
		}
		ops += agingSteps
		ac.traj = traj
	}
	return ops, nil
}

func (in *agingInstance) check() (string, error) {
	h := sha256.New()
	for _, ac := range in.campaigns {
		fmt.Fprintf(h, "policy %s seed %d\n", ac.policy, ac.seed)
		if err := ac.traj.WriteCSV(h); err != nil {
			return "", err
		}
		ac.k.Machine.Recycle()
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
