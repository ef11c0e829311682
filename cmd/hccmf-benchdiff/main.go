// Command hccmf-benchdiff compares kernel benchmark reports and flags
// performance regressions. With no -candidate it runs the micro-benchmark
// suite fresh (like `hccmf-bench -json`); with no -baseline it picks the
// newest checked-in BENCH_*.json. CI runs it report-only; pass
// -fail-on-regress to turn flagged kernels into a non-zero exit. Baseline
// rows the candidate no longer has are listed as dropped.
//
// Usage:
//
//	hccmf-benchdiff                            # fresh run vs newest BENCH_*.json
//	hccmf-benchdiff -candidate new.json        # saved run vs newest baseline
//	hccmf-benchdiff -baseline a.json -candidate b.json -fail-on-regress
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hccmf/internal/kernelbench"
	"hccmf/internal/version"
)

func main() {
	baseline := flag.String("baseline", "", "baseline report: bare kernel report or BENCH_*.json comparison (default: newest BENCH_*.json in -dir)")
	candidate := flag.String("candidate", "", "candidate report file (default: run the benchmark suite fresh)")
	dir := flag.String("dir", ".", "directory searched for BENCH_*.json when -baseline is unset")
	count := flag.Int("count", 3, "benchmark runs averaged per kernel when measuring fresh")
	threshold := flag.Float64("threshold", 0.15, "relative slowdown that counts as a regression (0.15 = 15%)")
	groups := flag.String("groups", "", "comma-separated benchmark groups to compare (kernel, ingest, serve, schedule; default all)")
	normalize := flag.Bool("normalize", false, "divide ratios by the suite median before flagging, cancelling uniform machine-wide drift")
	failOnRegress := flag.Bool("fail-on-regress", false, "exit non-zero when any kernel regresses (CI runs report-only without this)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println("hccmf-benchdiff", version.String())
		return
	}

	basePath := *baseline
	if basePath == "" {
		latest, err := kernelbench.LatestBaseline(*dir)
		if err != nil {
			fatal(err)
		}
		basePath = latest
	}
	base, err := kernelbench.LoadReport(basePath)
	if err != nil {
		fatal(err)
	}

	var cand kernelbench.Report
	if *candidate != "" {
		cand, err = kernelbench.LoadReport(*candidate)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("baseline : %s\ncandidate: %s\n\n", basePath, *candidate)
	} else {
		fmt.Printf("baseline : %s\ncandidate: fresh run (count=%d)\n\n", basePath, *count)
		cand = kernelbench.Collect(*count)
	}

	keep := func(string) bool { return true }
	if *groups != "" {
		want := make(map[string]bool)
		for _, g := range strings.Split(*groups, ",") {
			want[strings.TrimSpace(g)] = true
		}
		keep = func(g string) bool { return want[g] }
	}
	deltas := kernelbench.Diff(base, cand, *threshold)
	kept := deltas[:0]
	for _, d := range deltas {
		if keep(d.Group) {
			kept = append(kept, d)
		}
	}
	deltas = kept
	// Dropped rows are informational: they never change the exit status.
	dropped := 0
	for _, r := range kernelbench.Dropped(base, cand) {
		if keep(r.Group) {
			fmt.Printf("%-8s %-18s dropped (in the baseline, not in the candidate)\n", r.Group, r.Name)
			dropped++
		}
	}
	if dropped > 0 {
		fmt.Println()
	}
	if len(deltas) == 0 {
		fmt.Println("no comparable kernels between the two reports")
		return
	}
	if *normalize {
		m := kernelbench.MedianRatio(deltas)
		deltas = kernelbench.Normalize(deltas, m, *threshold)
		fmt.Printf("normalized by suite median ratio %.3f (ambient drift %+.1f%%)\n\n", m, (m-1)*100)
	}
	fmt.Print(kernelbench.FormatDeltas(deltas))

	regs := kernelbench.Regressions(deltas)
	if len(regs) == 0 {
		fmt.Printf("\nno regressions beyond %.0f%%\n", *threshold*100)
		return
	}
	fmt.Printf("\n%d kernel(s) regressed beyond %.0f%%\n", len(regs), *threshold*100)
	if *failOnRegress {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hccmf-benchdiff:", err)
	os.Exit(1)
}
