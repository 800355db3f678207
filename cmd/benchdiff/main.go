// Command benchdiff compares two -timing JSON reports written by
// cmd/reproduce (the format committed as BENCH_*.json trajectory
// points): per-experiment wall-clock deltas, the total, the process's
// peak RSS, and an optional regression gate on the times.
//
// Usage:
//
//	benchdiff -base BENCH_2026-08-05.json -new bench-timing.json
//	benchdiff -base old.json -new new.json -threshold 1.25
//
// With -threshold 0 (the default) the tool only reports. With a
// positive threshold it exits non-zero when any experiment — or the
// total — slowed down by more than that factor, so CI can choose to
// gate on it. Peak RSS is shown but never gated; reports from before it
// was recorded show it as "-". Reports taken under different parameters
// (stream length, settle epochs, seed, jobs) are flagged: their deltas
// measure the parameter change, not the code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// report mirrors cmd/reproduce's timingReport schema.
type report struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	NumCPU    int     `json:"num_cpu"`
	Jobs      int     `json:"jobs"`
	StreamLen uint64  `json:"stream_len"`
	Settle    int     `json:"settle_epochs"`
	Seed      int64   `json:"seed"`
	TotalMS   float64 `json:"total_ms"`
	// PeakRSSMB is absent (0) in reports written before it was added.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	PerExp    []struct {
		ID string  `json:"id"`
		MS float64 `json:"ms"`
	} `json:"experiments"`
}

func load(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// run is the whole tool behind an exit code, so tests can drive it with
// crafted reports and assert on output and gating. Exit codes: 0 clean,
// 1 regression beyond -threshold, 2 usage or unreadable input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("base", "", "baseline timing JSON (required)")
		newPath   = fs.String("new", "", "candidate timing JSON (required)")
		threshold = fs.Float64("threshold", 0, "fail (exit 1) when any ratio new/base exceeds this factor; 0 = report only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -base and -new are both required")
		fs.Usage()
		return 2
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cand, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	fmt.Fprintf(stdout, "base: %s  (%s, jobs=%d, stream=%d, settle=%d, seed=%d)\n",
		*basePath, base.Date, base.Jobs, base.StreamLen, base.Settle, base.Seed)
	fmt.Fprintf(stdout, "new:  %s  (%s, jobs=%d, stream=%d, settle=%d, seed=%d)\n",
		*newPath, cand.Date, cand.Jobs, cand.StreamLen, cand.Settle, cand.Seed)
	if base.StreamLen != cand.StreamLen || base.Settle != cand.Settle ||
		base.Seed != cand.Seed || base.Jobs != cand.Jobs {
		fmt.Fprintln(stdout, "WARNING: parameters differ between reports; deltas measure the parameter change, not the code")
	}
	fmt.Fprintln(stdout)

	baseMS := map[string]float64{}
	for _, e := range base.PerExp {
		baseMS[e.ID] = e.MS
	}
	var rows [][4]string
	var regressed []string
	ratioCell := func(id string, b, n float64) string {
		if b <= 0 {
			return "n/a"
		}
		ratio := n / b
		if *threshold > 0 && ratio > *threshold {
			regressed = append(regressed, id)
		}
		return fmt.Sprintf("%.2fx", ratio)
	}
	seen := map[string]bool{}
	for _, e := range cand.PerExp {
		seen[e.ID] = true
		b, ok := baseMS[e.ID]
		if !ok {
			rows = append(rows, [4]string{e.ID, "-", fmt.Sprintf("%.1f", e.MS), "new"})
			continue
		}
		rows = append(rows, [4]string{
			e.ID, fmt.Sprintf("%.1f", b), fmt.Sprintf("%.1f", e.MS), ratioCell(e.ID, b, e.MS),
		})
	}
	var dropped []string
	for _, e := range base.PerExp {
		if !seen[e.ID] {
			dropped = append(dropped, e.ID)
		}
	}
	sort.Strings(dropped)
	for _, id := range dropped {
		rows = append(rows, [4]string{id, fmt.Sprintf("%.1f", baseMS[id]), "-", "dropped"})
	}
	rows = append(rows, [4]string{
		"TOTAL", fmt.Sprintf("%.1f", base.TotalMS), fmt.Sprintf("%.1f", cand.TotalMS),
		ratioCell("TOTAL", base.TotalMS, cand.TotalMS),
	})
	// Peak RSS is reported, never gated: -threshold is about time.
	rssCell := func(mb float64) string {
		if mb <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f MB", mb)
	}
	rssRatio := "n/a"
	if base.PeakRSSMB > 0 && cand.PeakRSSMB > 0 {
		rssRatio = fmt.Sprintf("%.2fx", cand.PeakRSSMB/base.PeakRSSMB)
	}
	rows = append(rows, [4]string{"peak RSS (ungated)", rssCell(base.PeakRSSMB), rssCell(cand.PeakRSSMB), rssRatio})

	widths := [4]int{len("experiment"), len("base ms"), len("new ms"), len("ratio")}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells [4]string) {
		fmt.Fprintf(stdout, "%-*s  %*s  %*s  %*s\n",
			widths[0], cells[0], widths[1], cells[1], widths[2], cells[2], widths[3], cells[3])
	}
	printRow([4]string{"experiment", "base ms", "new ms", "ratio"})
	for _, r := range rows {
		printRow(r)
	}

	if len(regressed) > 0 {
		fmt.Fprintf(stdout, "\nbenchdiff: %d regression(s) beyond %.2fx: %v\n", len(regressed), *threshold, regressed)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
