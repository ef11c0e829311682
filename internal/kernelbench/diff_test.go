package kernelbench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baseReport() Report {
	return Report{
		Schema: Schema, Count: 3,
		Workload: Workload{Rows: 512, Cols: 256, NNZ: 1 << 14, K: 16},
		Kernels: []Result{
			{Name: "UpdateOne", NsPerOp: 100, NsPerUpdate: 100},
			{Name: "FPSGDEpoch", NsPerOp: 4e6, NsPerUpdate: 250},
			{Name: "HogwildEpoch", NsPerOp: 3e6, NsPerUpdate: 180},
		},
		Ingest: []Result{
			{Name: "ParseText", NsPerOp: 2e6, MBPerSec: 400},
		},
	}
}

// TestDiffFlagsSyntheticSlowdown is the acceptance gate: a 2x slowdown on
// one kernel must be flagged at the 15% threshold, and nothing else.
func TestDiffFlagsSyntheticSlowdown(t *testing.T) {
	base := baseReport()
	cand := baseReport()
	cand.Kernels[1].NsPerUpdate *= 2 // FPSGDEpoch 250 → 500 ns/update
	deltas := Diff(base, cand, 0.15)
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "FPSGDEpoch" {
		t.Fatalf("regressions = %+v, want exactly FPSGDEpoch", regs)
	}
	if regs[0].Ratio != 2 || regs[0].Metric != "ns/update" {
		t.Fatalf("delta = %+v, want ratio 2 on ns/update", regs[0])
	}
	out := FormatDeltas(deltas)
	if !strings.Contains(out, "REGRESS") || !strings.Contains(out, "FPSGDEpoch") {
		t.Fatalf("formatted report missing the flag:\n%s", out)
	}
}

// TestDiffToleratesNoise: a 5% drift stays under the 15% threshold.
func TestDiffToleratesNoise(t *testing.T) {
	base := baseReport()
	cand := baseReport()
	for i := range cand.Kernels {
		cand.Kernels[i].NsPerUpdate *= 1.05
		cand.Kernels[i].NsPerOp *= 1.05
	}
	if regs := Regressions(Diff(base, cand, 0.15)); len(regs) != 0 {
		t.Fatalf("5%% drift flagged: %+v", regs)
	}
}

// TestDiffIgnoresImprovements: a 10x speedup must never flag.
func TestDiffIgnoresImprovements(t *testing.T) {
	base := baseReport()
	cand := baseReport()
	for i := range cand.Kernels {
		cand.Kernels[i].NsPerUpdate /= 10
	}
	if regs := Regressions(Diff(base, cand, 0.15)); len(regs) != 0 {
		t.Fatalf("improvement flagged: %+v", regs)
	}
}

// TestDiffSkipsUnpairedAndSkipped: renamed kernels and race-mode skips
// drop out of the comparison instead of flagging.
func TestDiffSkipsUnpairedAndSkipped(t *testing.T) {
	base := baseReport()
	cand := baseReport()
	cand.Kernels[0].Name = "UpdateOneRenamed"
	cand.Kernels[2].Skipped = true
	cand.Kernels[2].NsPerUpdate = 0
	deltas := Diff(base, cand, 0.15)
	for _, d := range deltas {
		if d.Name == "UpdateOne" || d.Name == "UpdateOneRenamed" || d.Name == "HogwildEpoch" {
			t.Fatalf("unpaired/skipped kernel compared: %+v", d)
		}
	}
	// Ingest group still pairs (falls back to ns/op — no ns/update there).
	var sawIngest bool
	for _, d := range deltas {
		if d.Group == "ingest" && d.Name == "ParseText" {
			sawIngest = true
			if d.Metric != "ns/op" {
				t.Fatalf("ingest metric = %q, want ns/op fallback", d.Metric)
			}
		}
	}
	if !sawIngest {
		t.Fatal("ingest group not diffed")
	}
}

// TestDroppedListsBaselineOnlyRows: a baseline row the candidate lacks is
// reported per group — a rename shows as dropped under its old name — and
// rows present in both, or only in the candidate, are not.
func TestDroppedListsBaselineOnlyRows(t *testing.T) {
	base := baseReport()
	base.Serve = []ServeResult{{Name: "TopN10"}, {Name: "TopN10Batch32"}}
	cand := baseReport()
	cand.Kernels[0].Name = "UpdateOneRenamed"
	cand.Kernels = cand.Kernels[:2] // HogwildEpoch dropped
	cand.Ingest = nil               // ParseText dropped
	cand.Serve = []ServeResult{{Name: "TopN10"}, {Name: "TopN10Batch128"}}
	want := []DroppedRow{
		{Group: "kernel", Name: "UpdateOne"},
		{Group: "kernel", Name: "HogwildEpoch"},
		{Group: "ingest", Name: "ParseText"},
		{Group: "serve", Name: "TopN10Batch32"},
	}
	got := Dropped(base, cand)
	if len(got) != len(want) {
		t.Fatalf("Dropped = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dropped[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := Dropped(base, base); len(got) != 0 {
		t.Fatalf("identical reports: Dropped = %+v, want none", got)
	}
	// Dropped rows are informational: they never count as regressions.
	if regs := Regressions(Diff(base, cand, 0.15)); len(regs) != 0 {
		t.Fatalf("dropped rows flagged as regressions: %+v", regs)
	}
}

// TestLoadReportBareAndWrapped covers both on-disk shapes: the raw
// `hccmf-bench -json` output and the checked-in comparison wrapper whose
// `after` member is the baseline.
func TestLoadReportBareAndWrapped(t *testing.T) {
	dir := t.TempDir()
	rep := baseReport()
	rep.GoVersion = "go1.22"

	bare := filepath.Join(dir, "bare.json")
	buf, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bare, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(bare)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || len(got.Kernels) != 3 {
		t.Fatalf("bare load = %+v", got)
	}

	wrapped := filepath.Join(dir, "BENCH_0001.json")
	wbuf, err := json.Marshal(map[string]any{
		"schema": ComparisonSchema,
		"notes":  "synthetic",
		"before": map[string]any{"schema": Schema},
		"after":  rep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrapped, wbuf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = LoadReport(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != "go1.22" || len(got.Kernels) != 3 {
		t.Fatalf("wrapped load = %+v", got)
	}

	if _, err := LoadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"schema":"nope/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badPath); err == nil {
		t.Fatal("unknown schema loaded")
	}
}

// TestLatestBaseline picks the lexically newest BENCH_*.json.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_0003.json", "BENCH_0010.json", "BENCH_0004.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LatestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_0010.json" {
		t.Fatalf("latest = %s, want BENCH_0010.json", got)
	}
	if _, err := LatestBaseline(t.TempDir()); err == nil {
		t.Fatal("empty dir yielded a baseline")
	}
}

// TestLoadCheckedInBaselines proves the real repo documents load — the
// contract the CI benchdiff job relies on.
func TestLoadCheckedInBaselines(t *testing.T) {
	root := filepath.Join("..", "..")
	latest, err := LatestBaseline(root)
	if err != nil {
		t.Skipf("no checked-in baselines: %v", err)
	}
	rep, err := LoadReport(latest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || len(rep.Kernels) == 0 {
		t.Fatalf("checked-in baseline %s loaded as %+v", latest, rep)
	}
	// Self-diff must be all-zeros change, no flags.
	if regs := Regressions(Diff(rep, rep, 0.15)); len(regs) != 0 {
		t.Fatalf("self-diff flagged regressions: %+v", regs)
	}
}

// TestNormalizeCancelsAmbientDrift: a uniform 60% machine-wide slowdown
// must not flag anything after median normalization, while a kernel that
// additionally doubled still must.
func TestNormalizeCancelsAmbientDrift(t *testing.T) {
	base := baseReport()
	cand := baseReport()
	for i := range cand.Kernels {
		cand.Kernels[i].NsPerUpdate *= 1.6
		cand.Kernels[i].NsPerOp *= 1.6
	}
	cand.Ingest[0].NsPerOp *= 1.6
	deltas := Diff(base, cand, 0.5)
	if regs := Regressions(deltas); len(regs) == 0 {
		t.Fatal("raw 60% drift not flagged at the 50% threshold — test premise broken")
	}
	m := MedianRatio(deltas)
	if m < 1.59 || m > 1.61 {
		t.Fatalf("MedianRatio = %v, want ~1.6", m)
	}
	if regs := Regressions(Normalize(deltas, m, 0.5)); len(regs) != 0 {
		t.Fatalf("uniform drift still flagged after normalization: %+v", regs)
	}

	// The same drift plus one genuine 2x regression: only that kernel flags.
	cand.Kernels[0].NsPerUpdate *= 2 // UpdateOne: 1.6 ambient × 2 real
	deltas = Diff(base, cand, 0.5)
	norm := Normalize(deltas, MedianRatio(deltas), 0.5)
	regs := Regressions(norm)
	if len(regs) != 1 || regs[0].Name != "UpdateOne" {
		t.Fatalf("normalized regressions = %+v, want exactly UpdateOne", regs)
	}
}

// TestMedianRatioEdges: empty input and even-length lists.
func TestMedianRatioEdges(t *testing.T) {
	if m := MedianRatio(nil); m != 1 {
		t.Fatalf("MedianRatio(nil) = %v, want 1", m)
	}
	ds := []Delta{{Ratio: 1}, {Ratio: 3}}
	if m := MedianRatio(ds); m != 2 {
		t.Fatalf("even-length median = %v, want 2", m)
	}
	if regs := Regressions(Normalize(ds, 0, 0.5)); len(regs) != 1 {
		t.Fatalf("Normalize with m<=0 must fall back to raw ratios: %+v", regs)
	}
}
