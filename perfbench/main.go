// Command perfbench is the repository benchmark. It runs one workload
// closed-loop for a fixed time, checks every output against audits and
// digests, and prints each metric by name with its unit; the last line
// of standard output is one JSON result object. See README.md.
//
// Usage:
//
//	perfbench --workload replay-churn --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeed is the seed whose digests digests.json records.
const defaultSeed = 1

//go:embed digests.json
var recordedDigests []byte

// minRounds is the fewest rounds of each kind a run makes, so that
// set-up time is a median of several set-ups even in a short run.
const minRounds = 3

// round is one set-up plus one timed phase.
type round struct {
	traced  bool
	setupNs int64
	timedNs int64
	ops     uint64
	rt      runtimeStats
}

func (r round) opsPerSec() float64 { return ratio(float64(r.ops)*1e9, float64(r.timedNs)) }

// outcome is what a run measured.
type outcome struct {
	rounds    []round
	attempted uint64
	failed    uint64
	digest    string
	err       error
}

// runRound executes one round and returns its measurements and digest.
func runRound(w workload, seed int64, p *probe) (round, string, error) {
	// Collect the previous round's garbage outside the measured phases.
	runtime.GC()
	r := round{traced: p != nil}
	if p != nil {
		p.newRound()
	}
	t0 := now()
	in, err := w.setup(seed, p)
	if err != nil {
		return r, "", fmt.Errorf("set-up: %w", err)
	}
	r.setupNs = now() - t0
	// Collect set-up's garbage too, so every timed phase starts on a
	// freshly collected heap and the runtime window opens on a GC.
	runtime.GC()
	if p != nil {
		p.startTimed()
	}
	rt0 := readRuntime()
	t1 := now()
	r.ops, err = in.run()
	r.timedNs = now() - t1
	r.rt = runtimeWindow(rt0)
	if p != nil {
		p.endTimed()
	}
	if err != nil {
		return r, "", err
	}
	digest, err := in.check()
	return r, digest, err
}

// measure runs rounds until the timed phases add up to seconds and
// each kind of round ran at least minRounds times. A traced run
// alternates untraced and traced rounds, so tracing overhead is
// measured under the same conditions as the rounds it is compared to.
func measure(w workload, seed int64, seconds int, p *probe) outcome {
	var out outcome
	var timed int64
	counts := [2]int{}
	for i := 0; ; i++ {
		traced := p != nil && i%2 == 1
		if timed >= int64(seconds)*1e9 && counts[0] >= minRounds && (p == nil || counts[1] >= minRounds) {
			break
		}
		var rp *probe
		if traced {
			rp = p
		}
		r, digest, err := runRound(w, seed, rp)
		out.attempted += r.ops
		if err == nil && out.digest != "" && digest != out.digest {
			err = fmt.Errorf("round %d digest %s differs from round 0 digest %s", i, digest, out.digest)
		}
		if err != nil {
			out.failed += max(r.ops, 1)
			out.attempted = max(out.attempted, out.failed)
			out.err = fmt.Errorf("%s round %d: %w", w.name, i, err)
			return out
		}
		out.digest = digest
		out.rounds = append(out.rounds, r)
		timed += r.timedNs
		if traced {
			counts[1]++
		} else {
			counts[0]++
		}
	}
	return out
}

// checkRecorded compares the default seed's digest with digests.json.
func checkRecorded(name, digest string) error {
	var rec map[string]string
	if err := json.Unmarshal(recordedDigests, &rec); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want, ok := rec[name]
	if !ok {
		return fmt.Errorf("digests.json records no digest for %s", name)
	}
	if digest != want {
		return fmt.Errorf("%s digest %s, recorded %s", name, digest, want)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process high-water resident set from getrusage,
// which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report derives the metrics of a finished run.
func report(out outcome, p *probe) map[string]metricValue {
	var setups, rates [2][]float64
	var tracedOps uint64
	var tracedNs int64
	var rt runtimeStats
	var rtOps uint64
	for _, r := range out.rounds {
		i := 0
		if r.traced {
			i = 1
			tracedOps += r.ops
			tracedNs += r.timedNs
		} else {
			rt = rt.add(r.rt)
			rtOps += r.ops
		}
		setups[i] = append(setups[i], float64(r.setupNs)/1e9)
		rates[i] = append(rates[i], r.opsPerSec())
	}
	values := make(map[string]float64)
	defs := endToEnd
	if p == nil {
		values["ops_per_s"] = median(rates[0])
		values["setup_s"] = median(setups[0])
		values["peak_rss_mb"] = peakRSSMB()
	} else {
		overhead := 1 - ratio(median(rates[1]), median(rates[0]))
		values = layerValues(p, tracedOps, tracedNs, len(setups[1]), rt, rtOps, overhead)
		defs = perLayer()
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: replay-churn, translate-steady or aging-daemons")
	seed := fs.Int64("seed", defaultSeed, "input seed; digests.json records the outputs of seed 1")
	seconds := fs.Int("seconds", 30, "seconds of timed phase to measure (1..600)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 || *seconds > 600 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		fs.Usage()
		return 2
	}
	// The simulator runs single-threaded; cap the runtime's own
	// parallelism (GC workers) so hosts with many cores measure alike.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var p *probe
	if *traceFlag == 1 {
		p = newProbe()
	}
	out := measure(w, *seed, *seconds, p)
	if out.err == nil && *seed == defaultSeed {
		if err := checkRecorded(w.name, out.digest); err != nil {
			out.err = err
			out.failed = out.attempted
		}
	}
	res := result{
		Correct:   out.err == nil,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if out.err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", out.err)
	} else {
		res.Metrics = report(out, p)
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d rounds %d\n", w.name, *seed, *traceFlag, len(out.rounds))
	fmt.Fprintf(stdout, "digest %s %s\n", w.name, out.digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %s %g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
