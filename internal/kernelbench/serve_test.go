package kernelbench

import (
	"fmt"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var empty []time.Duration
	if got := Percentile(empty, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q*100, got, c.want)
		}
	}
	one := []time.Duration{7}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := Percentile(one, q); got != 7 {
			t.Errorf("single-sample p%g = %v", q*100, got)
		}
	}
}

func TestSummarizeServe(t *testing.T) {
	// Unsorted on purpose: Summarize must sort before ranking.
	lat := []time.Duration{
		3 * time.Microsecond, 1 * time.Microsecond, 2 * time.Microsecond, 100 * time.Microsecond,
	}
	res := SummarizeServe("s", lat, 1, 2*time.Millisecond)
	if res.Requests != 4 || res.Errors != 1 {
		t.Fatalf("counts: %+v", res)
	}
	if res.P50us != 2 {
		t.Fatalf("p50 = %v, want 2", res.P50us)
	}
	if res.P99us != 100 {
		t.Fatalf("p99 = %v, want 100", res.P99us)
	}
	if want := (3.0 + 1 + 2 + 100) / 4; res.MeanUs != want {
		t.Fatalf("mean = %v, want %v", res.MeanUs, want)
	}
	if want := 4.0 / 0.002; res.QPS != want {
		t.Fatalf("qps = %v, want %v", res.QPS, want)
	}
	if e := SummarizeServe("empty", nil, 0, time.Second); e.Requests != 0 || e.QPS != 0 {
		t.Fatalf("empty summary: %+v", e)
	}
}

func TestDiffServeGroup(t *testing.T) {
	base := Report{Serve: []ServeResult{
		{Name: "TopN10", P99us: 40, QPS: 1000},
		{Name: "Gone", P99us: 10},
	}}
	cand := Report{Serve: []ServeResult{
		{Name: "TopN10", P99us: 50, QPS: 900},
		{Name: "New", P99us: 10},
	}}
	deltas := Diff(base, cand, 0.15)
	if len(deltas) != 1 {
		t.Fatalf("deltas = %+v, want exactly the shared scenario", deltas)
	}
	d := deltas[0]
	if d.Group != "serve" || d.Metric != "p99_us" || d.Name != "TopN10" {
		t.Fatalf("delta shape: %+v", d)
	}
	if !d.Regressed || d.Ratio != 1.25 {
		t.Fatalf("50 vs 40 p99 must regress at 15%%: %+v", d)
	}
	// Within threshold: no flag.
	cand.Serve[0].P99us = 44
	if ds := Diff(base, cand, 0.15); ds[0].Regressed {
		t.Fatalf("44 vs 40 flagged: %+v", ds[0])
	}
}

// TestCollectServeSmoke runs the in-process harness at its smallest size
// and sanity-checks every scenario's summary: the two request rows keep
// their names (diffs against older reports line up), and each per-user
// batch row reports µs per user.
func TestCollectServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serve harness issues thousands of requests")
	}
	results, err := CollectServe(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"TopN10", "TopN10Batch32"}
	for _, label := range []string{"InCache", "OutOfCache"} {
		for _, b := range perUserBatches {
			want = append(want, fmt.Sprintf("PerUser/Batch%d/%s", b, label))
		}
	}
	if len(results) != len(want) {
		t.Fatalf("scenarios = %d, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Name != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, r.Name, want[i])
		}
		if r.Requests == 0 || r.Errors != 0 {
			t.Fatalf("%s: %+v", r.Name, r)
		}
		if r.QPS <= 0 || r.P50us <= 0 || r.P99us < r.P50us || r.MeanUs <= 0 {
			t.Fatalf("%s: implausible summary %+v", r.Name, r)
		}
		if perUser := i >= 2; perUser != (r.UsPerUser > 0) {
			t.Fatalf("%s: us_per_user %v", r.Name, r.UsPerUser)
		}
	}
}
