package main

import (
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workloads"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the package tests keep the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the untraced run's metrics, reported for every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// replayKinds are the replay event kinds in wire order; metric names
// use their stable wire names.
func replayKinds() []tracein.Kind {
	out := make([]tracein.Kind, tracein.NumKinds())
	for i := range out {
		out[i] = tracein.Kind(i)
	}
	return out
}

// simConfigs are the translate-steady cells, "<workload>.<mode>".
func simConfigs() []string {
	var out []string
	for _, w := range workloads.All() {
		for _, mode := range translateModes {
			out = append(out, w.Name()+"."+mode)
		}
	}
	return out
}

// faultKinds split osim.faults_per_op by fault type.
var faultKinds = []struct {
	name string
	kind trace.Kind
}{
	{"4k", trace.EvFault4K},
	{"huge", trace.EvFaultHuge},
	{"cow", trace.EvFaultCoW},
	{"file", trace.EvFaultFile},
}

// perLayer lists the traced run's metrics in report order. Every
// workload reports every one; a layer the workload does not enter
// reads 0.
func perLayer() []metricDef {
	out := []metricDef{
		{"tracein.decode_ns_per_event", "ns", "lower"},
		{"tracein.synth_ns_per_event", "ns", "lower"},
		{"tracein.encode_ns_per_event", "ns", "lower"},
	}
	for _, k := range replayKinds() {
		out = append(out,
			metricDef{"replay." + k.String() + ".p50_ns", "ns", "lower"},
			metricDef{"replay." + k.String() + ".p99_ns", "ns", "lower"},
			metricDef{"replay." + k.String() + ".share", "frac", "lower"})
	}
	for _, c := range simConfigs() {
		out = append(out, metricDef{"sim." + c + ".ns_per_access", "ns", "lower"})
	}
	out = append(out, metricDef{"workloads.stream_ns_per_access", "ns", "lower"})
	for _, mode := range translateModes {
		out = append(out, metricDef{"workloads." + mode + ".setup_ms", "ms", "lower"})
	}
	out = append(out,
		metricDef{"daemon.ingens.ns_per_op", "ns", "lower"},
		metricDef{"daemon.ranger.ns_per_op", "ns", "lower"},
		metricDef{"daemon.share", "frac", "lower"})
	for _, f := range faultKinds {
		out = append(out, metricDef{"osim.faults_per_op." + f.name, "1/op", "lower"})
	}
	out = append(out,
		metricDef{"buddy.splits_per_op", "1/op", "lower"},
		metricDef{"buddy.coalesces_per_op", "1/op", "lower"},
		metricDef{"osim.ca.target_hit_frac", "frac", "higher"},
		metricDef{"daemon.promotions_per_op", "1/op", "lower"},
		metricDef{"daemon.migrations_per_op", "1/op", "lower"},
		metricDef{"replay.skipped_frac", "frac", "lower"},
		metricDef{"replay.oom_frac", "frac", "lower"})
	for _, mode := range translateModes {
		out = append(out,
			metricDef{"sim." + mode + ".miss_ratio", "frac", "lower"},
			metricDef{"sim." + mode + ".walk_cycles_per_miss", "cycles", "lower"})
	}
	out = append(out,
		metricDef{"spot.correct_frac", "frac", "higher"},
		metricDef{"spot.nopred_frac", "frac", "lower"},
		metricDef{"runtime.allocs_per_op", "1/op", "lower"},
		metricDef{"runtime.alloc_bytes_per_op", "B/op", "lower"},
		metricDef{"runtime.gc_cpu_frac", "frac", "lower"},
		metricDef{"trace_overhead_frac", "frac", "lower"})
	return out
}

// ratio is a/b, 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes every per-layer metric from the probe's
// accumulators. ops and timedNs cover the traced rounds' timed
// phases; rt covers the untraced rounds' (the program's allocations
// without the probe's own); overhead is trace_overhead_frac.
func layerValues(p *probe, ops uint64, timedNs int64, setupRounds int, rt runtimeStats, rtOps uint64, overhead float64) map[string]float64 {
	v := make(map[string]float64)
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }

	v["tracein.decode_ns_per_event"] = ratio(float64(p.decodeNs), float64(p.decodeEvents))
	v["tracein.synth_ns_per_event"] = ratio(float64(p.synthNs), float64(p.setupEvents))
	v["tracein.encode_ns_per_event"] = ratio(float64(p.encodeNs), float64(p.setupEvents))

	var applyNs int64
	kindNs := make([]int64, len(p.gaps))
	for k, gs := range p.gaps {
		for _, g := range gs {
			kindNs[k] += g
		}
		applyNs += kindNs[k]
	}
	for _, k := range replayKinds() {
		gs := p.gaps[k]
		v["replay."+k.String()+".p50_ns"] = percentile(gs, 0.50)
		v["replay."+k.String()+".p99_ns"] = percentile(gs, 0.99)
		v["replay."+k.String()+".share"] = ratio(float64(kindNs[k]), float64(applyNs))
	}

	for _, c := range simConfigs() {
		v["sim."+c+".ns_per_access"] = ratio(float64(p.simNs[c]), float64(p.simAccesses[c]))
	}
	v["workloads.stream_ns_per_access"] = ratio(float64(p.streamNs), float64(p.streamAcc))
	for _, mode := range translateModes {
		v["workloads."+mode+".setup_ms"] = ratio(float64(p.modeSetupNs[mode])/1e6, float64(setupRounds))
	}

	var daemonNs int64
	for _, name := range []string{"ingens", "ranger"} {
		v["daemon."+name+".ns_per_op"] = perOp(float64(p.daemonNs[name]))
		daemonNs += p.daemonNs[name]
	}
	v["daemon.share"] = ratio(float64(daemonNs), float64(timedNs))

	count := func(k trace.Kind) float64 { return float64(p.counts[k]) }
	for _, f := range faultKinds {
		v["osim.faults_per_op."+f.name] = perOp(count(f.kind))
	}
	v["buddy.splits_per_op"] = perOp(count(trace.EvBuddySplit))
	v["buddy.coalesces_per_op"] = perOp(count(trace.EvBuddyCoalesce))
	hits := count(trace.EvCATargetHit)
	v["osim.ca.target_hit_frac"] = ratio(hits, hits+count(trace.EvCAFallback))
	v["daemon.promotions_per_op"] = perOp(count(trace.EvPromote))
	v["daemon.migrations_per_op"] = perOp(count(trace.EvMigrate))

	v["replay.skipped_frac"] = ratio(float64(p.replaySkipped), float64(p.replayEvents))
	v["replay.oom_frac"] = ratio(float64(p.replayOOMs), float64(p.replayEvents))

	for _, mode := range translateModes {
		r := p.simModes[mode]
		v["sim."+mode+".miss_ratio"] = ratio(float64(r.Misses), float64(r.Accesses))
		v["sim."+mode+".walk_cycles_per_miss"] = ratio(r.WalkCycles, float64(r.Misses))
	}
	nested := p.simModes["nested"]
	v["spot.correct_frac"] = ratio(float64(nested.SpotCorrect), float64(nested.Misses))
	v["spot.nopred_frac"] = ratio(float64(nested.SpotNoPred), float64(nested.Misses))

	v["runtime.allocs_per_op"] = ratio(float64(rt.allocs), float64(rtOps))
	v["runtime.alloc_bytes_per_op"] = ratio(float64(rt.allocBytes), float64(rtOps))
	v["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
	v["trace_overhead_frac"] = overhead
	return v
}
