package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testExp struct {
	ID string  `json:"id"`
	MS float64 `json:"ms"`
}

type testReport struct {
	Date      string    `json:"date"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Jobs      int       `json:"jobs"`
	StreamLen uint64    `json:"stream_len"`
	Settle    int       `json:"settle_epochs"`
	Seed      int64     `json:"seed"`
	TotalMS   float64   `json:"total_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb,omitempty"`
	PerExp    []testExp `json:"experiments"`
}

func writeReport(t *testing.T, name string, r testReport) string {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseReport() testReport {
	return testReport{
		Date: "2026-08-01", Jobs: 4, StreamLen: 1000, Settle: 40, Seed: 1,
		TotalMS: 300,
		PerExp: []testExp{
			{ID: "fig7", MS: 100},
			{ID: "fig8", MS: 200},
		},
	}
}

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestDeltaRows(t *testing.T) {
	base := writeReport(t, "base.json", baseReport())
	cand := baseReport()
	cand.PerExp = []testExp{{ID: "fig7", MS: 50}, {ID: "fig8", MS: 400}}
	cand.TotalMS = 450
	candPath := writeReport(t, "new.json", cand)

	code, out, _ := runDiff(t, "-base", base, "-new", candPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (report-only mode never gates)", code)
	}
	for _, want := range []string{"0.50x", "2.00x", "1.50x", "TOTAL"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("identical params flagged as differing:\n%s", out)
	}
}

func TestThresholdGate(t *testing.T) {
	base := writeReport(t, "base.json", baseReport())
	cand := baseReport()
	cand.PerExp = []testExp{{ID: "fig7", MS: 100}, {ID: "fig8", MS: 500}}
	cand.TotalMS = 600
	candPath := writeReport(t, "new.json", cand)

	// fig8 is 2.5x and the total 2.0x: both beyond 1.25.
	code, out, _ := runDiff(t, "-base", base, "-new", candPath, "-threshold", "1.25")
	if code != 1 {
		t.Fatalf("exit %d, want 1 for regressions beyond threshold", code)
	}
	if !strings.Contains(out, "2 regression(s) beyond 1.25x") {
		t.Errorf("missing regression summary:\n%s", out)
	}
	if !strings.Contains(out, "fig8") || !strings.Contains(out, "TOTAL") {
		t.Errorf("regression list should name fig8 and TOTAL:\n%s", out)
	}

	// A generous threshold passes the same pair of reports.
	code, _, _ = runDiff(t, "-base", base, "-new", candPath, "-threshold", "3")
	if code != 0 {
		t.Fatalf("exit %d, want 0 within threshold", code)
	}

	// Threshold 0 is report-only even with huge ratios.
	code, _, _ = runDiff(t, "-base", base, "-new", candPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0 with no threshold", code)
	}
}

func TestMismatchedExperimentSets(t *testing.T) {
	b := baseReport()
	b.PerExp = append(b.PerExp, testExp{ID: "table5", MS: 30}, testExp{ID: "table1", MS: 20})
	base := writeReport(t, "base.json", b)
	cand := baseReport()
	cand.PerExp = []testExp{{ID: "fig7", MS: 100}, {ID: "fig8", MS: 200}, {ID: "fig9", MS: 10}}
	candPath := writeReport(t, "new.json", cand)

	code, out, _ := runDiff(t, "-base", base, "-new", candPath, "-threshold", "1.25")
	if code != 0 {
		t.Fatalf("exit %d, want 0: new/dropped rows must not trip the gate", code)
	}
	if !strings.Contains(out, "fig9") || !strings.Contains(out, "new") {
		t.Errorf("candidate-only experiment not marked new:\n%s", out)
	}
	for _, id := range []string{"table1", "table5"} {
		if !strings.Contains(out, id) {
			t.Errorf("base-only experiment %s missing from output:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "dropped") {
		t.Errorf("base-only experiments not marked dropped:\n%s", out)
	}
	// Dropped rows are sorted for stable diffs.
	if strings.Index(out, "table1") > strings.Index(out, "table5") {
		t.Errorf("dropped rows not sorted:\n%s", out)
	}
}

func TestParamsMismatchWarning(t *testing.T) {
	base := writeReport(t, "base.json", baseReport())
	cand := baseReport()
	cand.StreamLen = 2000
	candPath := writeReport(t, "new.json", cand)

	code, out, _ := runDiff(t, "-base", base, "-new", candPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(out, "WARNING: parameters differ") {
		t.Errorf("missing params-differ warning:\n%s", out)
	}
}

func TestUsageAndLoadErrors(t *testing.T) {
	base := writeReport(t, "base.json", baseReport())

	if code, _, stderr := runDiff(t); code != 2 || !strings.Contains(stderr, "required") {
		t.Errorf("no flags: exit %d stderr %q, want 2 and a required-flags message", code, stderr)
	}
	if code, _, _ := runDiff(t, "-base", base); code != 2 {
		t.Errorf("missing -new: exit %d, want 2", code)
	}
	if code, _, _ := runDiff(t, "-bogus"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, stderr := runDiff(t, "-base", base, "-new", filepath.Join(t.TempDir(), "absent.json")); code != 2 || stderr == "" {
		t.Errorf("missing file: exit %d stderr %q, want 2 and an error", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runDiff(t, "-base", base, "-new", bad); code != 2 || !strings.Contains(stderr, "bad.json") {
		t.Errorf("corrupt file: exit %d stderr %q, want 2 naming the file", code, stderr)
	}
}

// TestPeakRSSRowUngated checks the peak-RSS row: shown with its ratio
// when both reports carry it, never tripping the gate however much it
// grew, and read from an old-format base (no peak_rss_mb field at all)
// as absent rather than as an error.
func TestPeakRSSRowUngated(t *testing.T) {
	b := baseReport()
	b.PeakRSSMB = 50
	base := writeReport(t, "base.json", b)
	cand := baseReport()
	cand.PeakRSSMB = 500
	candPath := writeReport(t, "new.json", cand)

	code, out, _ := runDiff(t, "-base", base, "-new", candPath, "-threshold", "1.25")
	if code != 0 {
		t.Fatalf("exit %d, want 0: peak RSS must not be gated\n%s", code, out)
	}
	for _, want := range []string{"peak RSS (ungated)", "50.0 MB", "500.0 MB", "10.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	old := writeReport(t, "old.json", baseReport())
	if buf, err := os.ReadFile(old); err != nil || strings.Contains(string(buf), "peak_rss_mb") {
		t.Fatalf("old-format base must lack the field (err %v): %s", err, buf)
	}
	code, out, stderr := runDiff(t, "-base", old, "-new", candPath, "-threshold", "1.25")
	if code != 0 {
		t.Fatalf("old-format base: exit %d, stderr %q", code, stderr)
	}
	var row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "peak RSS") {
			row = line
		}
	}
	if f := strings.Fields(row); len(f) < 6 || f[3] != "-" || f[len(f)-1] != "n/a" {
		t.Errorf("old-format base: peak RSS row %q, want base \"-\" and ratio n/a", row)
	}
}
