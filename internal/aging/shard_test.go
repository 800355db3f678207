package aging_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// shardFactory mirrors experiments.shardKernelFactory for the test
// policies: shard kernels share the parent's placement policy over
// their zone view, with private daemon instances.
func shardFactory(policy string) func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
	return func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
		var k *osim.Kernel
		var ds []workloads.Daemon
		switch policy {
		case "ingens":
			k = osim.NewKernel(view, osim.DefaultPolicy{})
			ds = append(ds, daemon.NewIngens(k))
		case "ca":
			k = osim.NewKernel(view, osim.CAPolicy{})
		case "eager":
			k = osim.NewKernel(view, osim.EagerPolicy{})
		case "ranger":
			k = osim.NewKernel(view, osim.DefaultPolicy{})
			ds = append(ds, daemon.NewRanger(k))
		default:
			k = osim.NewKernel(view, osim.DefaultPolicy{})
		}
		return k, ds
	}
}

// shardedConfig is smallConfig with two shards (one per test zone).
func shardedConfig(policy string, shardJobs int) aging.Config {
	cfg := smallConfig()
	cfg.Shards = 2
	cfg.ShardJobs = shardJobs
	cfg.NewShardKernel = shardFactory(policy)
	return cfg
}

// renderSharded runs one sharded campaign and returns its CSV.
func renderSharded(t *testing.T, policy string, cfg aging.Config) string {
	t.Helper()
	k, ds := newKernel(t, policy)
	tr, err := aging.New(k, ds, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestShardedCampaignAuditCleanPerPolicy is the shard-stepping stress
// gate: every policy churns two concurrently stepped shards with a
// multi-kernel whole-machine audit at every barrier snapshot. Under
// -race this also proves the parallel phase shares no mutable state.
func TestShardedCampaignAuditCleanPerPolicy(t *testing.T) {
	for _, policy := range []string{"thp", "ingens", "ca", "eager", "ranger"} {
		t.Run(policy, func(t *testing.T) {
			cfg := shardedConfig(policy, runtime.GOMAXPROCS(0))
			csv := renderSharded(t, policy, cfg)
			if strings.Count(csv, "\n") != 60/5+1 {
				t.Fatalf("unexpected CSV shape:\n%s", csv)
			}
		})
	}
}

// TestShardedCampaignShardJobsInvariance pins the tentpole contract:
// a sharded trajectory is a pure function of (Seed, Shards) —
// byte-identical whether shards step serially, two at a time, or on
// every core.
func TestShardedCampaignShardJobsInvariance(t *testing.T) {
	jobsGrid := []int{1, 2, runtime.GOMAXPROCS(0)}
	var want string
	for _, jobs := range jobsGrid {
		got := renderSharded(t, "ranger", shardedConfig("ranger", jobs))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("trajectory depends on ShardJobs=%d:\n--- jobs=1\n%s\n--- jobs=%d\n%s", jobs, want, jobs, got)
		}
	}
}

// TestShardedCampaignSeedsDiffer guards the per-shard rng derivation:
// different seeds must steer the sharded streams differently.
func TestShardedCampaignSeedsDiffer(t *testing.T) {
	render := func(seed int64) string {
		cfg := shardedConfig("thp", 1)
		cfg.Seed = seed
		return renderSharded(t, "thp", cfg)
	}
	if render(1) == render(2) {
		t.Fatal("seeds 1 and 2 produced identical sharded trajectories")
	}
}

// TestSingleShardDiffersFromTwoShards keeps sharding exercised: a
// two-shard campaign is a different (still deterministic) campaign from
// the one-shard default, not a re-ordering of it — the streams, daemon
// schedules, and OOM handling are per shard.
func TestSingleShardDiffersFromTwoShards(t *testing.T) {
	if renderSharded(t, "thp", smallConfig()) == renderSharded(t, "thp", shardedConfig("thp", 1)) {
		t.Fatal("one-shard and two-shard campaigns coincided — sharding is not being exercised")
	}
}

// TestSingleShardStepsParentKernel pins the one-shard runtime: the lone
// shard steps the parent kernel itself, so every step emits exactly one
// epoch span and one barrier span, and every snapshot counts that
// kernel once — its ClockNs is the kernel clock the step's barrier
// closed on, and the final Faults is the kernel's own fault count (no
// daemons run, so the drain adds none).
func TestSingleShardStepsParentKernel(t *testing.T) {
	tr := trace.New()
	k, ds := newKernel(t, "thp")
	k.SetTracer(tr)
	cfg := smallConfig()
	cfg.SnapshotEvery = 1
	traj, err := aging.New(k, ds, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.Count(trace.EvShardEpoch); n != 60 {
		t.Fatalf("EvShardEpoch count = %d, want 60 (one shard x 60 steps)", n)
	}
	var barrierClocks []uint64
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.EvShardEpoch:
			if e.A != 0 {
				t.Fatalf("epoch span names shard %d, want only shard 0", e.A)
			}
		case trace.EvShardBarrier:
			barrierClocks = append(barrierClocks, e.C)
		}
	}
	if len(barrierClocks) != 60 || len(traj.Snapshots) != 60 {
		t.Fatalf("%d barriers and %d snapshots, want 60 of each", len(barrierClocks), len(traj.Snapshots))
	}
	for i, s := range traj.Snapshots {
		if s.ClockNs != barrierClocks[i] {
			t.Fatalf("step %d: snapshot clock %d, kernel clock %d", s.Step, s.ClockNs, barrierClocks[i])
		}
	}
	if f, want := traj.Final().Faults, k.Stats.TotalFaults(); f != want {
		t.Fatalf("final snapshot counts %d faults, kernel took %d", f, want)
	}
}

// TestShardedCampaignClampsShards pins that asking for more shards
// than zones degrades to one shard per zone rather than leaving
// zoneless shards spinning.
func TestShardedCampaignClampsShards(t *testing.T) {
	cfg := shardedConfig("thp", 1)
	cfg.Shards = 16 // the test machine has two zones
	a := renderSharded(t, "thp", cfg)
	b := renderSharded(t, "thp", shardedConfig("thp", 1))
	if a != b {
		t.Fatalf("Shards=16 on a two-zone machine differs from Shards=2:\n--- 16\n%s\n--- 2\n%s", a, b)
	}
}

// TestShardedCampaignTracesShardEvents checks the shard observability
// contract: epoch spans per shard, barrier spans per step, and the
// campaign's gauges all flow through an attached tracer.
func TestShardedCampaignTracesShardEvents(t *testing.T) {
	tr := trace.New()
	k, ds := newKernel(t, "thp")
	k.SetTracer(tr)
	cfg := shardedConfig("thp", 2)
	cfg.NewShardKernel = func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
		sk, sds := shardFactory("thp")(view, shard)
		sk.SetTracer(tr)
		return sk, sds
	}
	if _, err := aging.New(k, ds, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	if n := tr.Count(trace.EvShardEpoch); n != 2*60 {
		t.Fatalf("EvShardEpoch count = %d, want %d (2 shards x 60 steps)", n, 2*60)
	}
	if n := tr.Count(trace.EvShardBarrier); n != 60 {
		t.Fatalf("EvShardBarrier count = %d, want 60 (one per step)", n)
	}
	shards := map[uint64]bool{}
	for _, e := range tr.Events() {
		if e.Kind == trace.EvShardEpoch {
			shards[e.A] = true
		}
	}
	if !shards[0] || !shards[1] || len(shards) != 2 {
		t.Fatalf("epoch spans name shards %v, want exactly {0, 1}", shards)
	}
}

// TestShardedCampaignDrainsProcesses pins the teardown contract: after
// the final audit no process survives on any shard kernel.
func TestShardedCampaignDrainsProcesses(t *testing.T) {
	k, ds := newKernel(t, "ca")
	var shardKernels []*osim.Kernel
	cfg := shardedConfig("ca", 2)
	cfg.NewShardKernel = func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
		sk, sds := shardFactory("ca")(view, shard)
		shardKernels = append(shardKernels, sk)
		return sk, sds
	}
	if _, err := aging.New(k, ds, cfg).Run(); err != nil {
		t.Fatal(err)
	}
	for i, sk := range shardKernels {
		if n := len(sk.Processes()); n != 0 {
			t.Fatalf("shard %d: %d processes survived the drain", i, n)
		}
	}
}
