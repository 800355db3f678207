package aging_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/workloads"
)

// newKernel builds a small two-zone machine under the named policy.
func newKernel(t *testing.T, policy string) (*osim.Kernel, []workloads.Daemon) {
	t.Helper()
	m := zone.NewMachine(zone.Config{
		ZonePages:      []uint64{48 * addr.MaxOrderPages, 48 * addr.MaxOrderPages},
		SortedMaxOrder: policy == "ca",
	})
	var k *osim.Kernel
	var ds []workloads.Daemon
	switch policy {
	case "thp":
		k = osim.NewKernel(m, osim.DefaultPolicy{})
	case "ingens":
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewIngens(k))
	case "ca":
		k = osim.NewKernel(m, osim.CAPolicy{})
	case "eager":
		k = osim.NewKernel(m, osim.EagerPolicy{})
	case "ranger":
		k = osim.NewKernel(m, osim.DefaultPolicy{})
		ds = append(ds, daemon.NewRanger(k))
	default:
		t.Fatalf("unknown policy %q", policy)
	}
	return k, ds
}

// smallConfig keeps campaigns quick while auditing at every snapshot.
// It runs one shard: the lone shard steps the parent kernel.
func smallConfig() aging.Config {
	return aging.Config{
		Shards:            1,
		Seed:              1,
		Steps:             60,
		SnapshotEvery:     5,
		AuditEvery:        1,
		MaxTenants:        6,
		MinFootprintPages: 128,
		MaxFootprintPages: 4096,
		FilePages:         1024,
	}
}

// TestCampaignAuditCleanPerPolicy churns every policy through a full
// one-shard campaign with a whole-machine audit at every snapshot: the
// lifecycle leaks this harness was built to flush out all surface here
// as audit or invariant failures, and so would an audit that gathered
// the parent kernel's references twice.
func TestCampaignAuditCleanPerPolicy(t *testing.T) {
	for _, policy := range []string{"thp", "ingens", "ca", "eager", "ranger"} {
		t.Run(policy, func(t *testing.T) {
			k, ds := newKernel(t, policy)
			tr, err := aging.New(k, ds, smallConfig()).Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Snapshots) == 0 {
				t.Fatal("campaign recorded no snapshots")
			}
			final := tr.Final()
			if final.Step != 60 {
				t.Fatalf("final snapshot at step %d, want 60", final.Step)
			}
			if final.Faults == 0 {
				t.Fatal("campaign took no faults — nothing was exercised")
			}
			if tr.PeakRSS() == 0 {
				t.Fatal("no tenant RSS ever recorded")
			}
			// The drain after the last step exits every tenant; the
			// recorded snapshots are pre-drain, so RSS is whatever the
			// surviving tenants held.
			if len(k.Processes()) != 0 {
				t.Fatalf("%d processes survived the drain", len(k.Processes()))
			}
		})
	}
}

// TestCampaignDeterministic pins that a campaign is a pure function of
// its seed: two independent runs produce byte-identical trajectory
// CSVs, the property the figAging drivers and golden tables rely on.
func TestCampaignDeterministic(t *testing.T) {
	render := func() string {
		k, ds := newKernel(t, "ranger")
		tr, err := aging.New(k, ds, smallConfig()).Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed, different trajectories:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	if strings.Count(a, "\n") != 60/5+1 {
		t.Fatalf("unexpected CSV shape:\n%s", a)
	}
}

// TestCampaignSeedsDiffer guards against the rng being ignored: two
// different seeds must not produce the same trajectory.
func TestCampaignSeedsDiffer(t *testing.T) {
	render := func(seed int64) string {
		k, ds := newKernel(t, "thp")
		cfg := smallConfig()
		cfg.Seed = seed
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
	if render(1) == render(2) {
		t.Fatal("seeds 1 and 2 produced identical trajectories")
	}
}
