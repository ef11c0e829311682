package kernelbench

import (
	"fmt"
	"sort"
	"time"

	"hccmf/internal/mf"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
)

// Serving benchmark group. Where the kernel and ingest groups time
// training-side hot loops, this group times the query side: top-N requests
// against an in-process recommend.Service over the same Rows×Cols×K
// workload. hccmf-loadgen reports the same ServeResult shape measured over
// HTTP against a live hccmf-serve, so in-process and end-to-end numbers
// diff with the same tooling.

// ServeSchema tags the serving benchmark group embedded in the report's
// Serve field, versioned separately like IngestSchema.
const ServeSchema = "hccmf-bench/serve/v1"

// ServeResult is one serving scenario's latency/throughput summary.
// Percentiles are exact (nearest-rank over all recorded samples), in
// microseconds: serving latencies sit in the µs-to-ms range where ns are
// noise and seconds lose precision. UsPerUser, set on the per-user batch
// rows only, is the run's wall time divided by the users it served.
type ServeResult struct {
	Name      string  `json:"name"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	QPS       float64 `json:"qps"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	MeanUs    float64 `json:"mean_us"`
	UsPerUser float64 `json:"us_per_user,omitempty"`
}

// Percentile returns the exact q-quantile of sorted (ascending) by the
// nearest-rank method. Zero on an empty slice.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// SummarizeServe aggregates raw per-request latencies into a ServeResult.
// latencies may arrive unsorted; elapsed is the wall time of the whole run
// (QPS accounts for concurrency, so it is requests/elapsed, not
// 1/mean-latency).
func SummarizeServe(name string, latencies []time.Duration, errors int64, elapsed time.Duration) ServeResult {
	res := ServeResult{
		Name:     name,
		Requests: int64(len(latencies)),
		Errors:   errors,
	}
	if len(latencies) == 0 {
		return res
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	const us = float64(time.Microsecond)
	res.MeanUs = float64(sum) / float64(len(sorted)) / us
	res.P50us = float64(Percentile(sorted, 0.50)) / us
	res.P99us = float64(Percentile(sorted, 0.99)) / us
	if elapsed > 0 {
		res.QPS = float64(len(latencies)) / elapsed.Seconds()
	}
	return res
}

// Serving scenario sizes. TopN requests ask for serveN items; the batch
// scenario scores serveBatch users per request. Request counts are per
// Collect run (multiplied by count).
const (
	serveN        = 10
	serveBatch    = 32
	serveSingles  = 2000
	serveBatchReq = 200
)

// Per-user batch rows: each batch size serves a fixed number of users per
// Collect run on two models, the Rows×Cols×K one (Q = 125 KiB, in L2) and
// an out-of-cache one whose Q (outOfCacheCols×K float32 = 8 MiB) outgrows
// a per-core L2, so a row's µs/user shows whether batching amortises the
// Q scan.
const (
	outOfCacheCols       = 1 << 16
	inCacheBatchUsers    = 2048
	outOfCacheBatchUsers = 256
)

// perUserBatches are the batch sizes of the per-user rows.
var perUserBatches = []int{1, 8, 32, 128}

// CollectServe measures the serving scenarios against an in-process
// Service on seeded synthetic models: single-user requests
// (shard-parallel scoring) and batch requests (a tiled pass over Q per
// worker's group of users) on the Rows×Cols×K model, then the per-user
// batch rows PerUser/Batch<b>/{InCache,OutOfCache}.
func CollectServe(count int) ([]ServeResult, error) {
	if count < 1 {
		count = 1
	}
	model := mf.NewFactorsInit(Rows, Cols, K, 3.5, sparse.NewRand(11))
	svc, err := recommend.NewService(model, Rows, Cols, recommend.ServiceConfig{MaxN: serveN})
	if err != nil {
		return nil, fmt.Errorf("kernelbench: serve harness: %w", err)
	}
	defer svc.Close()

	buf := make([]recommend.Item, 0, serveN)
	singles := make([]time.Duration, 0, count*serveSingles)
	start := time.Now()
	for i := 0; i < count*serveSingles; i++ {
		u := int32(i % Rows)
		t0 := time.Now()
		if _, err := svc.TopNInto(u, serveN, buf); err != nil {
			return nil, fmt.Errorf("kernelbench: serve TopN user %d: %w", u, err)
		}
		singles = append(singles, time.Since(t0))
	}
	singleElapsed := time.Since(start)

	users := make([]int32, serveBatch)
	bufs := make([][]recommend.Item, serveBatch)
	for i := range bufs {
		bufs[i] = make([]recommend.Item, 0, serveN)
	}
	batches := make([]time.Duration, 0, count*serveBatchReq)
	start = time.Now()
	for i := 0; i < count*serveBatchReq; i++ {
		for j := range users {
			users[j] = int32((i*serveBatch + j) % Rows)
		}
		t0 := time.Now()
		if err := svc.TopNBatch(users, serveN, bufs); err != nil {
			return nil, fmt.Errorf("kernelbench: serve TopNBatch request %d: %w", i, err)
		}
		batches = append(batches, time.Since(t0))
	}
	batchElapsed := time.Since(start)

	results := []ServeResult{
		SummarizeServe(fmt.Sprintf("TopN%d", serveN), singles, 0, singleElapsed),
		SummarizeServe(fmt.Sprintf("TopN%dBatch%d", serveN, serveBatch), batches, 0, batchElapsed),
	}
	inCache, err := perUserRows(svc, Rows, "InCache", count*inCacheBatchUsers)
	if err != nil {
		return nil, err
	}
	results = append(results, inCache...)

	big := mf.NewFactorsInit(Rows, outOfCacheCols, K, 3.5, sparse.NewRand(12))
	bigSvc, err := recommend.NewService(big, Rows, outOfCacheCols, recommend.ServiceConfig{MaxN: serveN})
	if err != nil {
		return nil, fmt.Errorf("kernelbench: serve harness: %w", err)
	}
	defer bigSvc.Close()
	outOfCache, err := perUserRows(bigSvc, Rows, "OutOfCache", count*outOfCacheBatchUsers)
	if err != nil {
		return nil, err
	}
	return append(results, outOfCache...), nil
}

// perUserRows serves users top-N queries at each batch size in
// perUserBatches (rounded up to whole batches) and reports one row per
// size with UsPerUser set.
func perUserRows(svc *recommend.Service, rows int, label string, users int) ([]ServeResult, error) {
	var out []ServeResult
	for _, b := range perUserBatches {
		ids := make([]int32, b)
		bufs := make([][]recommend.Item, b)
		for i := range bufs {
			bufs[i] = make([]recommend.Item, 0, serveN)
		}
		reqs := (users + b - 1) / b
		lat := make([]time.Duration, 0, reqs)
		start := time.Now()
		for r := 0; r < reqs; r++ {
			for j := range ids {
				ids[j] = int32((r*b + j) % rows)
			}
			t0 := time.Now()
			if err := svc.TopNBatch(ids, serveN, bufs); err != nil {
				return nil, fmt.Errorf("kernelbench: serve %s batch %d request %d: %w", label, b, r, err)
			}
			lat = append(lat, time.Since(t0))
		}
		elapsed := time.Since(start)
		res := SummarizeServe(fmt.Sprintf("PerUser/Batch%d/%s", b, label), lat, 0, elapsed)
		res.UsPerUser = float64(elapsed) / float64(time.Microsecond) / float64(reqs*b)
		out = append(out, res)
	}
	return out, nil
}
