package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracein"
	"repro/internal/workloads"
)

// clockBase anchors now(): time.Since reads the monotonic clock, so
// spans measured with it are immune to wall-clock steps.
var clockBase = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// probe accumulates what the traced rounds of a run measure from
// outside the program: the exact counters of an attached tracer, and
// the time spent inside calls into each layer. Untraced rounds pass a
// nil probe; tr and wrapDaemons accept nil, and the other hooks run in
// traced rounds only.
type probe struct {
	tracer *trace.Tracer
	before []uint64 // tracer counts at the start of the timed phase
	counts []uint64 // tracer counts summed over timed phases

	// tracein: trace generation and encoding in set-up, decoding in
	// the timed phase.
	synthNs, encodeNs, decodeNs int64
	setupEvents, decodeEvents   uint64

	// Replay apply gaps, by event kind: every duration one apply of
	// that kind took (between successive ReplayStream next calls).
	gaps [][]int64
	// Replay outcomes summed over traced rounds.
	replayEvents, replaySkipped, replayOOMs uint64

	// Set-up time by translate mode; sim.Run self time (stream time
	// excluded) and accesses by "<workload>.<mode>"; stream Fill time
	// over every config; simulated results summed by mode.
	modeSetupNs map[string]int64
	simNs       map[string]int64
	simAccesses map[string]uint64
	streamNs    int64
	streamAcc   uint64
	simModes    map[string]sim.Result

	// Daemon poll time by daemon name.
	daemonNs map[string]int64
}

func newProbe() *probe {
	return &probe{
		before:      make([]uint64, trace.NumKinds()),
		counts:      make([]uint64, trace.NumKinds()),
		gaps:        make([][]int64, tracein.NumKinds()),
		modeSetupNs: make(map[string]int64),
		simNs:       make(map[string]int64),
		simAccesses: make(map[string]uint64),
		simModes:    make(map[string]sim.Result),
		daemonNs:    make(map[string]int64),
	}
}

// tr returns the tracer to attach, nil for an untraced round.
func (p *probe) tr() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// newRound attaches a fresh tracer for the next traced round. A
// zero-capacity tracer keeps exact per-kind counters but stores no
// events, so the traced run's memory stays that of the program.
func (p *probe) newRound() {
	p.tracer = trace.NewCapped(0)
}

// startTimed snapshots the tracer's counters at the start of the timed
// phase and endTimed adds the difference, so counts hold the work done
// by the measured ops only, not by set-up.
func (p *probe) startTimed() {
	for k := range p.before {
		p.before[k] = p.tracer.Count(trace.Kind(k))
	}
}

func (p *probe) endTimed() {
	for k := range p.counts {
		p.counts[k] += p.tracer.Count(trace.Kind(k)) - p.before[k]
	}
}

// timedNext returns a ReplayStream source that decodes from d and
// times, from outside the engine, both the decode and the apply of
// every event. With Jobs=1 the engine applies each event before it
// asks for the next one, so the gap between the return of one call
// and the start of the next is exactly one apply of the event the
// first call returned; the call that returns io.EOF closes the last
// event's gap, so every applied event is attributed exactly once. The
// decode clock starts after the gap is recorded, so the probe's own
// bookkeeping is charged to neither figure.
func (p *probe) timedNext(d *tracein.Decoder) func() (tracein.Event, error) {
	var ev tracein.Event
	var prev tracein.Kind
	var last int64
	pending := false
	return func() (tracein.Event, error) {
		if pending {
			p.gaps[prev] = append(p.gaps[prev], now()-last)
		}
		t0 := now()
		err := d.Next(&ev)
		last = now()
		p.decodeNs += last - t0
		if err != nil {
			pending = false
			return tracein.Event{}, err
		}
		p.decodeEvents++
		pending, prev = true, ev.Kind
		return ev, nil
	}
}

// timedStream wraps a workload stream so the time spent generating
// accesses is measured apart from the translation that consumes them.
// It forwards Fill, so sim.Run batches exactly as with the bare stream.
type timedStream struct {
	s workloads.BatchStream
	p *probe
}

func (t *timedStream) Next() (workloads.Access, bool) {
	t0 := now()
	a, ok := t.s.Next()
	t.p.streamNs += now() - t0
	if ok {
		t.p.streamAcc++
	}
	return a, ok
}

func (t *timedStream) Fill(buf []workloads.Access) int {
	t0 := now()
	n := t.s.Fill(buf)
	t.p.streamNs += now() - t0
	t.p.streamAcc += uint64(n)
	return n
}

// timedDaemon wraps a daemon and times every poll. It forwards both
// Maybe and MaybeN: workloads batches polls through MaybeN only when
// the daemon it holds implements BatchDaemon, so a wrapper without
// MaybeN would change the call pattern the program runs.
type timedDaemon struct {
	d    workloads.Daemon
	name string
	p    *probe
}

func (t *timedDaemon) Maybe() {
	t0 := now()
	t.d.Maybe()
	t.p.daemonNs[t.name] += now() - t0
}

func (t *timedDaemon) MaybeN(n uint64) {
	t0 := now()
	if b, ok := t.d.(workloads.BatchDaemon); ok {
		b.MaybeN(n)
	} else {
		for ; n > 0; n-- {
			t.d.Maybe()
		}
	}
	t.p.daemonNs[t.name] += now() - t0
}

// wrapDaemons returns ds with every daemon timed under its name, or ds
// itself for an untraced round.
func (p *probe) wrapDaemons(ds []workloads.Daemon, name string) []workloads.Daemon {
	if p == nil || len(ds) == 0 {
		return ds
	}
	out := make([]workloads.Daemon, len(ds))
	for i, d := range ds {
		out[i] = &timedDaemon{d: d, name: name, p: p}
	}
	return out
}

// percentile returns the q-quantile of xs (sorted in place), nearest
// rank; 0 for an empty slice.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

// runtimeStats reads the Go runtime counters the traced run reports
// as deltas over timed phases; runtimeWindow takes such a delta.
type runtimeStats struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	return runtimeStats{
		allocs:     runtimeSamples[0].Value.Uint64(),
		allocBytes: runtimeSamples[1].Value.Uint64(),
		gcCPU:      runtimeSamples[2].Value.Float64(),
		totalCPU:   runtimeSamples[3].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocs:     a.allocs + b.allocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}

// runtimeWindow returns the runtime counters' change since open, which
// readRuntime took right after a runtime.GC that ended set-up. The
// runtime refreshes its CPU classes only when a GC cycle ends, so
// another forced GC closes the window at the end of the timed phase.
// That GC's own CPU is estimated by a third one right after it, on the
// same live heap, and taken off; the GC CPU never goes below 0.
func runtimeWindow(open runtimeStats) runtimeStats {
	runtime.GC()
	closed := readRuntime()
	runtime.GC()
	extra := readRuntime().sub(closed)
	d := closed.sub(open)
	d.gcCPU = max(0, d.gcCPU-extra.gcCPU)
	d.totalCPU -= extra.totalCPU
	return d
}
