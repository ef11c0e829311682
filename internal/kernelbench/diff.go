package kernelbench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ComparisonSchema tags the checked-in before/after comparison documents
// (BENCH_*.json). A comparison wraps two kernel reports; for diffing
// purposes its `after` member is the baseline.
const ComparisonSchema = "hccmf-bench/kernel-comparison/v1"

// Delta is one kernel's change between a baseline and a candidate report.
// Ratio is candidate/baseline of the chosen metric, so >1 means slower.
type Delta struct {
	Name      string  `json:"name"`
	Group     string  `json:"group"`  // "kernel", "ingest", "serve" or "schedule"
	Metric    string  `json:"metric"` // "ns/update", "ns/op" or "p99_us"
	Base      float64 `json:"base"`
	Candidate float64 `json:"candidate"`
	Ratio     float64 `json:"ratio"`
	Regressed bool    `json:"regressed"`
}

// Diff compares a candidate report against a baseline, kernel by kernel.
// A kernel regresses when its candidate time exceeds the baseline by more
// than threshold (0.15 = 15% slower). Kernels present in only one report
// or skipped in either are left out — renames and race-mode skips are not
// regressions (Dropped lists the baseline rows a candidate lacks).
// Faster-than-baseline results never flag.
func Diff(base, cand Report, threshold float64) []Delta {
	var deltas []Delta
	deltas = append(deltas, diffGroup("kernel", base.Kernels, cand.Kernels, threshold)...)
	deltas = append(deltas, diffGroup("ingest", base.Ingest, cand.Ingest, threshold)...)
	deltas = append(deltas, diffServe(base.Serve, cand.Serve, threshold)...)
	deltas = append(deltas, diffGroup("schedule", base.Schedule, cand.Schedule, threshold)...)
	return deltas
}

// diffServe compares the serving group on tail latency: the ratio is
// candidate/baseline p99 in µs, so like the time-based groups >1 means
// slower. QPS and p50 ride along in the reports for human reading; p99 is
// the regression gate because it is the serving SLO number.
func diffServe(base, cand []ServeResult, threshold float64) []Delta {
	byName := make(map[string]ServeResult, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var deltas []Delta
	for _, c := range cand {
		b, ok := byName[c.Name]
		if !ok || b.P99us <= 0 || c.P99us <= 0 {
			continue
		}
		d := Delta{
			Name: c.Name, Group: "serve", Metric: "p99_us",
			Base: b.P99us, Candidate: c.P99us, Ratio: c.P99us / b.P99us,
		}
		d.Regressed = d.Ratio > 1+threshold
		deltas = append(deltas, d)
	}
	return deltas
}

func diffGroup(group string, base, cand []Result, threshold float64) []Delta {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var deltas []Delta
	for _, c := range cand {
		b, ok := byName[c.Name]
		if !ok || b.Skipped || c.Skipped {
			continue
		}
		metric, bv, cv := pickMetric(b, c)
		if bv <= 0 || cv <= 0 {
			continue
		}
		d := Delta{
			Name: c.Name, Group: group, Metric: metric,
			Base: bv, Candidate: cv, Ratio: cv / bv,
		}
		d.Regressed = d.Ratio > 1+threshold
		deltas = append(deltas, d)
	}
	return deltas
}

// DroppedRow names a baseline row that the candidate report no longer has.
type DroppedRow struct {
	Group string
	Name  string
}

// Dropped lists the baseline rows, group by group, that the candidate
// lacks. Diff pairs rows by name and leaves unpaired ones out (a rename is
// not a regression), so this list is what keeps a deleted or renamed row
// from leaving the comparison unannounced. It is informational: a dropped
// row is not a regression.
func Dropped(base, cand Report) []DroppedRow {
	resultName := func(r Result) string { return r.Name }
	serveName := func(r ServeResult) string { return r.Name }
	var out []DroppedRow
	out = append(out, droppedRows("kernel", base.Kernels, cand.Kernels, resultName)...)
	out = append(out, droppedRows("ingest", base.Ingest, cand.Ingest, resultName)...)
	out = append(out, droppedRows("serve", base.Serve, cand.Serve, serveName)...)
	out = append(out, droppedRows("schedule", base.Schedule, cand.Schedule, resultName)...)
	return out
}

func droppedRows[T any](group string, base, cand []T, name func(T) string) []DroppedRow {
	have := make(map[string]bool, len(cand))
	for _, c := range cand {
		have[name(c)] = true
	}
	var out []DroppedRow
	for _, b := range base {
		if !have[name(b)] {
			out = append(out, DroppedRow{Group: group, Name: name(b)})
		}
	}
	return out
}

// pickMetric chooses the per-update time when both reports carry it (the
// normalized number that survives workload-size changes) and falls back to
// raw ns/op otherwise.
func pickMetric(b, c Result) (string, float64, float64) {
	if b.NsPerUpdate > 0 && c.NsPerUpdate > 0 {
		return "ns/update", b.NsPerUpdate, c.NsPerUpdate
	}
	return "ns/op", b.NsPerOp, c.NsPerOp
}

// MedianRatio returns the median candidate/baseline ratio across deltas,
// or 1 when the list is empty. On a shared machine the whole suite drifts
// together (another tenant, thermal throttling); the median tracks that
// ambient shift because a genuine regression moves only its own kernels,
// not the middle of the distribution.
func MedianRatio(deltas []Delta) float64 {
	if len(deltas) == 0 {
		return 1
	}
	rs := make([]float64, len(deltas))
	for i, d := range deltas {
		rs[i] = d.Ratio
	}
	sort.Float64s(rs)
	if n := len(rs); n%2 == 1 {
		return rs[n/2]
	} else {
		return (rs[n/2-1] + rs[n/2]) / 2
	}
}

// Normalize divides every delta's ratio by m (a MedianRatio) and re-flags
// regressions against threshold, cancelling a uniform machine-wide
// slowdown so only relative movement gates. The blind spot is a change
// that slows *every* benchmark equally — the equivalence and selection
// unit tests cover that case, not the bench gate. Base/Candidate keep
// their measured values; only Ratio and Regressed are rescaled.
func Normalize(deltas []Delta, m, threshold float64) []Delta {
	if m <= 0 {
		m = 1
	}
	out := append([]Delta(nil), deltas...)
	for i := range out {
		out[i].Ratio /= m
		out[i].Regressed = out[i].Ratio > 1+threshold
	}
	return out
}

// Regressions filters a delta list down to the flagged entries.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// FormatDeltas renders the comparison as an aligned table, slowest change
// first, flagged rows marked with "REGRESS".
func FormatDeltas(deltas []Delta) string {
	sorted := append([]Delta(nil), deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ratio > sorted[j].Ratio })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-18s %-10s %14s %14s %8s\n",
		"group", "name", "metric", "base", "candidate", "change")
	for _, d := range sorted {
		mark := ""
		if d.Regressed {
			mark = "  REGRESS"
		}
		fmt.Fprintf(&sb, "%-8s %-18s %-10s %14.1f %14.1f %+7.1f%%%s\n",
			d.Group, d.Name, d.Metric, d.Base, d.Candidate, (d.Ratio-1)*100, mark)
	}
	return sb.String()
}

// LoadReport reads a benchmark report from path, accepting either a bare
// kernel report (hccmf-bench/kernel/v1, what `hccmf-bench -json` writes)
// or a checked-in comparison document (BENCH_*.json), whose `after` member
// is unwrapped as the baseline.
func LoadReport(path string) (Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var sniff struct {
		Schema string          `json:"schema"`
		After  json.RawMessage `json:"after"`
	}
	if err := json.Unmarshal(buf, &sniff); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	switch sniff.Schema {
	case Schema:
		var rep Report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return Report{}, fmt.Errorf("%s: %w", path, err)
		}
		return rep, nil
	case ComparisonSchema:
		if len(sniff.After) == 0 {
			return Report{}, fmt.Errorf("%s: comparison document has no after report", path)
		}
		var rep Report
		if err := json.Unmarshal(sniff.After, &rep); err != nil {
			return Report{}, fmt.Errorf("%s: after: %w", path, err)
		}
		if rep.Schema != Schema {
			return Report{}, fmt.Errorf("%s: after schema %q, want %q", path, rep.Schema, Schema)
		}
		return rep, nil
	default:
		return Report{}, fmt.Errorf("%s: unknown schema %q", path, sniff.Schema)
	}
}

// LatestBaseline returns the newest checked-in BENCH_*.json in dir. The
// files carry a zero-padded sequence number, so lexical order is creation
// order.
func LatestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("no BENCH_*.json baselines in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}
