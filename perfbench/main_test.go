package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/tracein"
	"repro/internal/workloads"
)

// The per-kind gap timing must attribute every applied event to
// exactly one kind: the kind counts sum to the engine's event count.
func TestGapTimingAttributesEveryEvent(t *testing.T) {
	events := tracein.Synth(tracein.SynthConfig{Seed: 7, Events: 20_000, Tenants: replayTenants})
	var buf bytes.Buffer
	if err := tracein.Encode(&buf, events, false); err != nil {
		t.Fatal(err)
	}
	eng, err := tracein.NewEngine(tracein.ReplayConfig{Shards: replayShards, Jobs: 1, Policy: check.PolicyCA})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	d, err := tracein.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe()
	if err := eng.ReplayStream(p.timedNext(d)); err != nil {
		t.Fatal(err)
	}
	res := eng.Result()
	var attributed uint64
	for k, gs := range p.gaps {
		attributed += uint64(len(gs))
		want := 0
		for _, ev := range events {
			if int(ev.Kind) == k {
				want++
			}
		}
		if len(gs) != want {
			t.Errorf("kind %v: %d gaps, %d events", tracein.Kind(k), len(gs), want)
		}
	}
	if attributed != res.Events || p.decodeEvents != res.Events {
		t.Fatalf("attributed %d, decoded %d, engine applied %d", attributed, p.decodeEvents, res.Events)
	}
}

type countingDaemon struct{ maybe, maybeN int }

func (d *countingDaemon) Maybe()        { d.maybe++ }
func (d *countingDaemon) MaybeN(uint64) { d.maybeN++ }

type plainDaemon struct{ maybe int }

func (d *plainDaemon) Maybe() { d.maybe++ }

// The daemon wrapper forwards both methods, so batched polls reach a
// BatchDaemon as one MaybeN, and a plain daemon still sees n polls.
func TestTimedDaemonForwardsBothMethods(t *testing.T) {
	p := newProbe()
	bd, pd := &countingDaemon{}, &plainDaemon{}
	ds := p.wrapDaemons([]workloads.Daemon{bd, pd}, "test")
	for _, d := range ds {
		b, ok := d.(workloads.BatchDaemon)
		if !ok {
			t.Fatal("wrapped daemon does not implement BatchDaemon")
		}
		b.MaybeN(5)
		d.Maybe()
	}
	if bd.maybe != 1 || bd.maybeN != 1 {
		t.Errorf("batch daemon saw %d Maybe, %d MaybeN; want 1, 1", bd.maybe, bd.maybeN)
	}
	if pd.maybe != 6 {
		t.Errorf("plain daemon saw %d polls, want 6", pd.maybe)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// BENCHMARK.json lists the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, program has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
}

// runJSON runs the command and returns its digest line and result.
func runJSON(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result: %v", args, err)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") {
			return l, res
		}
	}
	t.Fatalf("%v: no digest line", args)
	return "", res
}

// Every workload reports every end-to-end metric untraced and every
// per-layer metric traced, correct against the recorded digests of
// the default seed; the probe's wrappers (timed decode, stream and
// daemons, attached tracer) leave the digest unchanged.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range allWorkloads {
		plain, res := runJSON(t, "--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "0")
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: result %+v", w.name, res)
		}
		for _, d := range endToEnd {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v", w.name, d.Name, m)
			}
		}
		traced, res := runJSON(t, "--workload", w.name, "--seed", "1", "--seconds", "1", "--trace", "1")
		if traced != plain {
			t.Errorf("%s: traced %q, untraced %q", w.name, traced, plain)
		}
		if len(res.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer()))
		}
		for _, d := range perLayer() {
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, d.Name)
			}
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "replay-churn", "--trace", "2"},
		{"--workload", "replay-churn", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
