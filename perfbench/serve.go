package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/recommend"
	"hccmf/internal/sparse"
)

// Serving load. Each round runs an open loop at a fixed nominal rate of
// about a third of the workload's single-query capacity on a 2-vCPU host,
// so that it stays below saturation when a shared host slows down, with a
// model hot swap every reloadEvery beside it; then a fixed rate ladder,
// where rung j offers ladderBase·ladderStep^j queries/s. A short burst of
// closed-loop batches follows the open loop and every ladder probe. The
// open loop and the ladder come from at most two sender goroutines that
// call the service synchronously, so a request whose senders are both
// busy waits, and its latency is timed from when it was due.
const (
	topN          = 10
	reloadEvery   = 500 * time.Millisecond
	ladderStep    = 1.05
	senders       = 2
	batchUsers    = 32
	maxSamples    = 20000 // query results sent back for checking, at most
	oracleSampleN = 25    // every 25th of them is compared with the oracle

	// Shares of the serving seconds spent in each phase, summed over
	// rounds.
	serveRounds = 3
	openShare   = 0.2
	rungShare   = 0.08 // per bisection probe; about 5 probes per round
	// burstShare is one batch burst's share; about 18 bursts in all, so
	// the batch phase gets about 40% of the serving seconds.
	burstShare = 0.022
)

// loadProfile is a workload's serving load, fixed per workload from the
// service's capacity on a 2-vCPU host.
type loadProfile struct {
	openRate    float64 // queries/s of the open loop
	ladderBase  float64 // queries/s of rung 0
	ladderRungs int
	// limit is the p99 latency a rung must keep. On a shared 2-vCPU host
	// host stalls, not queueing, already set the open-loop p99 at a third
	// of capacity (≈0.2–2 ms on netflix-synth, 6–10 ms on ml20m-tcp), so
	// the limit sits above that floor, where queueing grows.
	limit time.Duration
}

var loadProfiles = map[string]loadProfile{
	// 888 items: ≈45 µs a query; the ladder tops out near 30k queries/s.
	"netflix-synth": {openRate: 10000, ladderBase: 10000, ladderRungs: 36, limit: 5 * time.Millisecond},
	// 65631 items: ≈1.8 ms a query; the ladder tops out near 630 queries/s.
	"ml20m-tcp": {openRate: 200, ladderBase: 200, ladderRungs: 36, limit: 25 * time.Millisecond},
}

// serveResult is what a serving child process reports.
type serveResult struct {
	SetupS         float64            `json:"setup_s"`
	P50Ms          float64            `json:"topn_p50_ms"`
	P99Ms          float64            `json:"topn_p99_ms"`
	MaxQPS         float64            `json:"topn_max_qps"`
	BatchUsersPerS float64            `json:"batch_users_per_s"`
	Attempted      int64              `json:"attempted"`
	Failed         int64              `json:"failed"`
	Problems       []string           `json:"problems,omitempty"`
	Phases         map[string][2]int  `json:"phases"` // attempted, failed
	Rungs          []rungReport       `json:"rungs,omitempty"`
	Samples        []resultSample     `json:"samples,omitempty"`
	Layers         map[string]float64 `json:"layers"`
	Spans          []span             `json:"spans,omitempty"`
}

func (r *serveResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// resultSample is one served result for the parent's checks.
type resultSample struct {
	U      int32            `json:"u"`
	Items  []recommend.Item `json:"items"`
	Oracle bool             `json:"oracle"` // also compare with the oracle
}

// checkServeSamples verifies served results against the served files: no
// result holds an item the user rated, and sampled results equal the
// brute-force oracle. It returns the number checked and failed.
func checkServeSamples(p pipeline, samples []resultSample) (checked, failed int, problems []string) {
	model, err := readModel(p.model)
	if err != nil {
		return 1, 1, []string{fmt.Sprintf("check: %v", err)}
	}
	ratings, err := dataset.ReadRatingsFile(p.ratings, runtime.GOMAXPROCS(0))
	if err != nil {
		return 1, 1, []string{fmt.Sprintf("check: %v", err)}
	}
	seen := seenLists(ratings)
	oracle := newOracle(model, seen)
	for _, sm := range samples {
		checked++
		if sm.U < 0 || int(sm.U) >= model.M {
			failed++
			problems = append(problems, fmt.Sprintf("result for unknown user %d", sm.U))
			continue
		}
		if i := firstSeen(seen, sm.U, sm.Items); i >= 0 {
			failed++
			problems = append(problems, fmt.Sprintf("user %d got seen item %d", sm.U, i))
			continue
		}
		if sm.Oracle && !sameItems(sm.Items, oracle.topN(sm.U)) {
			failed++
			problems = append(problems, fmt.Sprintf("user %d: service %v, oracle %v", sm.U, sm.Items, oracle.topN(sm.U)))
		}
	}
	return checked, failed, problems
}

func firstSeen(seen seenSet, u int32, items []recommend.Item) int32 {
	for _, it := range items {
		if seen.has(u, it.ID) {
			return it.ID
		}
	}
	return -1
}

// rungReport records one ladder probe.
type rungReport struct {
	Round    int     `json:"round"`
	Rate     float64 `json:"rate"`
	Achieved float64 `json:"achieved"`
	P99Ms    float64 `json:"p99_ms"`
	Refused  int     `json:"refused"`
	Growing  bool    `json:"growing_backlog"`
	Pass     bool    `json:"pass"`
}

// serveSetup is a ready service and what loading it cost.
type serveSetup struct {
	model   *mf.Factors
	ratings *sparse.COO
	svc     *recommend.Service
	times   map[string]time.Duration // load, read, service, mark
	start   time.Duration
	ready   time.Duration
}

func readModel(path string) (*mf.Factors, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mf.ReadFactors(f)
}

// setupService loads the model and the seen set and builds the service.
// This is the timed set-up of the serving stage.
func setupService(p pipeline, clock func() time.Duration) (*serveSetup, error) {
	s := &serveSetup{times: map[string]time.Duration{}}
	s.start = clock()
	var err error
	s.model, err = readModel(p.model)
	t1 := clock()
	s.times["load"] = t1 - s.start
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	s.ratings, err = dataset.ReadRatingsFile(p.ratings, runtime.GOMAXPROCS(0))
	t2 := clock()
	s.times["read"] = t2 - t1
	if err != nil {
		return nil, fmt.Errorf("read ratings: %w", err)
	}
	s.svc, err = recommend.NewService(s.model, s.model.M, s.model.N, recommend.ServiceConfig{})
	t3 := clock()
	s.times["service"] = t3 - t2
	if err != nil {
		return nil, err
	}
	err = s.svc.MarkSeen(s.ratings)
	s.ready = clock()
	s.times["mark"] = s.ready - t3
	if err != nil {
		s.svc.Close()
		return nil, fmt.Errorf("mark seen: %w", err)
	}
	return s, nil
}

func checkServeInputs(res *serveResult, s *serveSetup, p pipeline) {
	m, r := s.model, s.ratings
	if m.M != p.rows || m.N != p.cols || m.K != trainK {
		res.problem("model is %dx%d k=%d, want %dx%d k=%d", m.M, m.N, m.K, p.rows, p.cols, trainK)
	}
	if r.Rows != p.rows || r.Cols != p.cols || r.NNZ() != p.nnz {
		res.problem("ratings are %dx%d nnz=%d, want %dx%d nnz=%d", r.Rows, r.Cols, r.NNZ(), p.rows, p.cols, p.nnz)
	}
}

// runServeSetupOnly measures one more set-up sample in a fresh process.
func runServeSetupOnly(p pipeline) serveResult {
	base := time.Now()
	clock := func() time.Duration { return time.Since(base) }
	res := serveResult{Phases: map[string][2]int{}, Layers: map[string]float64{}}
	s, err := setupService(p, clock)
	res.Attempted = 1
	if err != nil {
		res.problem("setup: %v", err)
		res.Failed = 1
		return res
	}
	defer s.svc.Close()
	res.SetupS = (s.ready - s.start).Seconds()
	checkServeInputs(&res, s, p)
	res.Failed = int64(len(res.Problems))
	return res
}

// query is one issued top-N request of a load phase.
type query struct {
	user             int32
	sender           int
	due, issue, done time.Duration
	late             time.Duration
	items            [topN]recommend.Item
	n                int
	failed           bool
}

// loadOutcome is one load phase's requests.
type loadOutcome struct {
	queries []query
	refused int
	// refusedDue is the latest due time of a refused query.
	refusedDue time.Duration
	start      time.Duration
	end        time.Duration
}

// sleepGranularity is how far time.Sleep overshoots on Linux: up to a
// millisecond when the process is otherwise idle.
const sleepGranularity = time.Millisecond

// waitUntil returns when the clock reads due. A sender whose queries are
// due more often than 2·sleepGranularity cannot pace them by sleeping, so
// it yields in a loop instead. Spinning takes a processor the service's
// workers could use, so slower loads sleep.
func waitUntil(due, perSender time.Duration, clock func() time.Duration) {
	if perSender >= 2*sleepGranularity {
		if d := due - clock(); d > 0 {
			time.Sleep(d)
		}
		return
	}
	for clock() < due {
		runtime.Gosched()
	}
}

// openLoop offers rate queries/s for dur from at most `senders`
// goroutines. Query i is due at start + i/rate; a query still unissued
// limit after the phase ends is refused. It has then waited longer than
// the limit, so it counts as missing it.
func openLoop(svc *recommend.Service, users *userStream, rate float64, dur, limit time.Duration, clock func() time.Duration) loadOutcome {
	total := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	ids := users.take(total)
	start := clock() + time.Millisecond
	end := start + dur
	var next atomic.Int64
	var refused, refusedDue atomic.Int64
	per := make([][]query, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out := make([]query, 0, total/senders+1)
			buf := make([]recommend.Item, 0, topN)
			free := start
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				due := start + time.Duration(i)*interval
				if clock() > end+limit {
					refused.Add(1)
					for d := refusedDue.Load(); int64(due) > d && !refusedDue.CompareAndSwap(d, int64(due)); d = refusedDue.Load() {
					}
					continue
				}
				waitUntil(due, senders*interval, clock)
				q := query{user: ids[i], sender: s, due: due, issue: clock()}
				q.late = q.issue - max(due, free)
				got, err := svc.TopNInto(q.user, topN, buf)
				q.done = clock()
				free = q.done
				q.failed = err != nil
				q.n = copy(q.items[:], got)
				out = append(out, q)
			}
			per[s] = out
		}(s)
	}
	wg.Wait()
	var o loadOutcome
	for _, p := range per {
		o.queries = append(o.queries, p...)
	}
	sort.Slice(o.queries, func(a, b int) bool { return o.queries[a].due < o.queries[b].due })
	o.refused = int(refused.Load())
	o.refusedDue = time.Duration(refusedDue.Load())
	o.start, o.end = start, clock()
	return o
}

// latencies returns completion-minus-due times in ms, with refused and
// failed queries as +Inf so they never meet the limit.
func (o loadOutcome) latencies() []float64 { return o.latencyList(true) }

// reportLatencies is latencies for reporting, where a number must be
// finite: a failed query keeps its measured time (the failure is counted
// on its own) and a refused one counts as having waited from its due time
// to the end of the phase, a lower bound of what it would have seen.
func (o loadOutcome) reportLatencies() []float64 { return o.latencyList(false) }

func (o loadOutcome) latencyList(strict bool) []float64 {
	lat := make([]float64, 0, len(o.queries)+o.refused)
	for _, q := range o.queries {
		if q.failed && strict {
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(q.done-q.due)/1e6)
	}
	refused := float64(o.end-o.refusedDue) / 1e6
	if strict {
		refused = math.Inf(1)
	}
	for i := 0; i < o.refused; i++ {
		lat = append(lat, refused)
	}
	return lat
}

// growingBacklog reports whether the queue wait climbed across the phase:
// the median wait rises from each quarter to the next, and the last
// quarter's exceeds 1 ms and twice the first's. A host stall inside one
// quarter raises that quarter alone, so it does not read as a backlog.
func (o loadOutcome) growingBacklog() bool {
	n := len(o.queries)
	if o.refused > 0 || n < 8 {
		return o.refused > 0
	}
	var q [4]float64
	for k := range q {
		part := o.queries[k*n/4 : (k+1)*n/4]
		w := make([]float64, len(part))
		for i, x := range part {
			w[i] = float64(x.issue - x.due)
		}
		q[k] = median(w)
	}
	return q[0] < q[1] && q[1] < q[2] && q[2] < q[3] && q[3] > 1e6 && q[3] > 2*q[0]
}

// userStream hands out seeded uniformly random user IDs.
type userStream struct {
	r     *splitmix
	users int
}

func (u *userStream) take(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(u.r.next() % uint64(u.users))
	}
	return ids
}

// runServe is the serving child: set-up, then serveRounds rounds of the
// open loop with hot swaps, the rate ladder and the closed-loop batch
// phase. The results go back to the parent for checking.
func runServe(p pipeline, seconds float64, job int, traced bool) serveResult {
	base := time.Now()
	clock := func() time.Duration { return time.Since(base) }
	res := serveResult{Phases: map[string][2]int{}, Layers: map[string]float64{}}
	prof := loadProfiles[p.workload]
	s, err := setupService(p, clock)
	res.Attempted = 1
	if err != nil {
		res.problem("setup: %v", err)
		res.Failed = 1
		return res
	}
	defer s.svc.Close()
	res.SetupS = (s.ready - s.start).Seconds()
	checkServeInputs(&res, s, p)
	res.Phases["setup"] = [2]int{1, len(res.Problems)}
	s.ratings = nil // the service holds its own seen set
	users := &userStream{r: stream(p.seed, 6, 0), users: s.model.M}
	debug.FreeOSMemory()

	// The host's speed drifts over seconds, so the phases run in rounds
	// and the open-loop and ladder figures are medians over the rounds:
	// one round caught in a host stall does not set them. Batch calls are
	// spread over the whole stage in bursts for the same reason.
	phase := func(share float64) time.Duration {
		return time.Duration(share * seconds * float64(time.Second) / serveRounds)
	}
	var (
		opens, ladder          []loadOutcome
		reloads                []time.Duration
		reloadSpans            [][2]time.Duration
		batchCalls, okCalls    []float64
		batchSpans             [][2]time.Duration
		batchWindows           [][2]time.Duration
		passMax                []float64
		reloadFailed           int
		batchFailed, batchSent int
		checkBatch             [][]recommend.Item
		checkBatchUsers        []int32
	)
	bufs := make([][]recommend.Item, batchUsers)
	for i := range bufs {
		bufs[i] = make([]recommend.Item, 0, topN)
	}
	// batchBurst issues closed-loop batches of 32 users from one caller.
	batchBurst := func() {
		start := clock()
		for clock()-start < time.Duration(burstShare*seconds*float64(time.Second)) {
			ids := users.take(batchUsers)
			t0 := clock()
			err := s.svc.TopNBatch(ids, topN, bufs)
			t1 := clock()
			batchSent++
			batchCalls = append(batchCalls, float64(t1-t0))
			batchSpans = append(batchSpans, [2]time.Duration{t0, t1})
			if err != nil {
				batchFailed++
				continue
			}
			okCalls = append(okCalls, (t1 - t0).Seconds())
			if checkBatch == nil {
				checkBatchUsers = ids
				for _, b := range bufs {
					checkBatch = append(checkBatch, append([]recommend.Item(nil), b...))
				}
			}
		}
		batchWindows = append(batchWindows, [2]time.Duration{start, clock()})
	}
	for round := 0; round < serveRounds; round++ {
		// The load generator's and the reloads' garbage is collected
		// between phases, so a collection it triggers does not land inside
		// a timed phase by chance.
		runtime.GC()

		// Phase 1: open loop at the nominal rate with hot swaps beside it.
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			tick := time.NewTicker(reloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				t0 := clock()
				gen := s.svc.Generation()
				err := reloadModel(s.svc, p.model)
				t1 := clock()
				reloads = append(reloads, t1-t0)
				reloadSpans = append(reloadSpans, [2]time.Duration{t0, t1})
				if err != nil || s.svc.Generation() != gen+1 {
					reloadFailed++
				}
			}
		}()
		opens = append(opens, openLoop(s.svc, users, prof.openRate, phase(openShare), prof.limit, clock))
		close(stop)
		rwg.Wait()
		batchBurst()

		// Phase 2: the rate ladder, searched by bisection over fixed rungs.
		lo, hi := -1, prof.ladderRungs
		best := 0.0
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			rate := prof.ladderBase * math.Pow(ladderStep, float64(mid))
			o := openLoop(s.svc, users, rate, phase(rungShare), prof.limit, clock)
			ladder = append(ladder, o)
			p99 := percentile(o.latencies(), 0.99)
			growing := o.growingBacklog()
			pass := countFailed(o) == 0 && p99 <= float64(prof.limit)/1e6 && !growing
			achieved := float64(len(o.queries)) / (o.end - o.start).Seconds()
			res.Rungs = append(res.Rungs, rungReport{Round: round, Rate: rate, Achieved: achieved,
				P99Ms:   percentile(o.reportLatencies(), 0.99),
				Refused: o.refused, Growing: growing, Pass: pass})
			if pass {
				lo, best = mid, achieved
			} else {
				hi = mid
			}
			batchBurst()
		}
		passMax = append(passMax, best)
	}
	if reloadFailed > 0 {
		res.problem("%d of %d reloads failed or did not advance the generation", reloadFailed, len(reloads))
	}
	var roundP50, roundP99 []float64
	openN, openFailed := 0, 0
	for _, o := range opens {
		lat := o.reportLatencies()
		roundP50 = append(roundP50, percentile(lat, 0.50))
		roundP99 = append(roundP99, percentile(lat, 0.99))
		openN += len(o.queries)
		openFailed += countFailed(o)
	}
	res.P50Ms = median(roundP50)
	res.P99Ms = median(roundP99)
	res.MaxQPS = median(passMax)
	// The batch rate is the users served over the time spent in calls.
	// On a 2-vCPU host the call times fall into clusters (about 0.65 ms
	// and 0.95 ms a call on netflix-synth) whose shares wander, so a
	// median call jumps between clusters from run to run, while the total
	// moves only with the shares.
	if len(okCalls) > 0 {
		var busy float64
		for _, d := range okCalls {
			busy += d
		}
		res.BatchUsersPerS = batchUsers * float64(len(okCalls)) / busy
	}
	ladderN, ladderFailed := 0, 0
	for _, o := range ladder {
		ladderN += len(o.queries)
		ladderFailed += countFailed(o)
	}
	res.Phases["open"] = [2]int{openN, openFailed}
	res.Phases["reload"] = [2]int{len(reloads), reloadFailed}
	res.Phases["ladder"] = [2]int{ladderN, ladderFailed}
	res.Phases["batch"] = [2]int{batchSent, batchFailed}

	// Evenly spaced results go back to the parent, which checks them
	// against the served files once this process (and its memory) is gone.
	outcomes := append(append([]loadOutcome(nil), opens...), ladder...)
	total := 0
	for _, o := range outcomes {
		total += len(o.queries)
	}
	stride, k := max(1, (total+maxSamples-1)/maxSamples), 0
	for _, o := range outcomes {
		for _, q := range o.queries {
			if k%stride == 0 && !q.failed {
				res.Samples = append(res.Samples, resultSample{U: q.user, Items: q.items[:q.n], Oracle: (k/stride)%oracleSampleN == 0})
			}
			k++
		}
	}
	for i, u := range checkBatchUsers {
		res.Samples = append(res.Samples, resultSample{U: u, Items: checkBatch[i], Oracle: true})
	}
	end := clock()

	for _, ph := range res.Phases {
		res.Attempted += int64(ph[0])
		res.Failed += int64(ph[1])
	}
	res.Attempted-- // the set-up counted above is also in Phases
	res.Layers = serveLayers(s, p, opens, reloads, batchCalls)
	if traced {
		tr := &tracer{}
		root := tr.add(0, job, "serve", "main", "", "measured", s.start, end)
		setup := tr.add(root, job, "setup", "main", "", "measured", s.start, s.ready)
		at := s.start
		for _, st := range []struct{ name, layer, key string }{
			{"mf.ReadFactors", "mf.load", "load"},
			{"dataset.ReadRatingsFile", "dataset.read_text", "read"},
			{"recommend.NewService", "recommend.new_service", "service"},
			{"recommend.MarkSeen", "recommend.mark_seen", "mark"},
		} {
			d := s.times[st.key]
			tr.add(setup, job, st.name, "main", st.layer, "measured", at, at+d)
			at += d
		}
		for _, o := range opens {
			traceLoad(tr, root, job, "open-loop", o, true)
		}
		for _, r := range reloadSpans {
			tr.add(root, job, "mf.ReadFactors+Reload", "reloader", "recommend.reload", "measured", r[0], r[1])
		}
		for i, o := range ladder {
			traceLoad(tr, root, job, fmt.Sprintf("ladder %.0f q/s", res.Rungs[i].Rate), o, false)
		}
		for _, w := range batchWindows {
			ph := tr.add(root, job, "batch", "main", "loadgen.idle", "measured", w[0], w[1])
			for _, b := range batchSpans {
				if b[0] >= w[0] && b[1] <= w[1] {
					tr.add(ph, job, "recommend.TopNBatch", "main", "recommend.batch", "measured", b[0], b[1])
				}
			}
		}
		res.Spans = tr.spans
	}
	return res
}

// traceQueriesPerPhase caps the queries one load phase records, so a
// fast catalog's trace stays small enough to load; larger phases record
// every k-th query and say so in the phase's name.
const traceQueriesPerPhase = 2000

// traceLoad adds one load phase: the phase span (its self time is when no
// recorded query was in flight) and each recorded query's service call.
// With queue set, each query also gets a span from due to done, whose self
// time is its queue wait; the ladder leaves that out, as the waits of its
// overloaded rungs would swamp the table.
func traceLoad(tr *tracer, root, job int, name string, o loadOutcome, queue bool) {
	stride := max(1, (len(o.queries)+traceQueriesPerPhase-1)/traceQueriesPerPhase)
	if stride > 1 {
		name += fmt.Sprintf(" (every %d. query)", stride)
	}
	ph := tr.add(root, job, name, "main", "loadgen.idle", "measured", o.start, o.end)
	for i := 0; i < len(o.queries); i += stride {
		q := o.queries[i]
		track := fmt.Sprintf("sender-%d", q.sender)
		parent := ph
		if queue {
			// A query can fall due before its sender's previous one ends,
			// so the due→done spans get a track of their own.
			parent = tr.add(ph, job, "query", track+" queue", "loadgen.queue", "measured", q.due, q.done)
		}
		tr.add(parent, job, "recommend.TopNInto", track, "recommend.topn", "measured", q.issue, q.done)
	}
}

func reloadModel(svc *recommend.Service, path string) error {
	m, err := readModel(path)
	if err != nil {
		return err
	}
	return svc.Reload(m, m.M, m.N)
}

func countFailed(o loadOutcome) int {
	n := 0
	for _, q := range o.queries {
		if q.failed {
			n++
		}
	}
	return n
}

// serveLayers computes the serving per-layer metrics.
func serveLayers(s *serveSetup, p pipeline, opens []loadOutcome, reloads []time.Duration, batchCalls []float64) map[string]float64 {
	var service, queue, late []float64
	var scored, busy float64
	items := float64(s.model.N)
	for _, o := range opens {
		for _, q := range o.queries {
			service = append(service, float64(q.done-q.issue)/1e3)
			queue = append(queue, float64(q.issue-q.due)/1e3)
			late = append(late, float64(q.late)/1e6)
			scored += items
			busy += (q.done - q.issue).Seconds()
		}
	}
	rl := make([]float64, len(reloads))
	for i, d := range reloads {
		rl[i] = d.Seconds()
	}
	m := map[string]float64{
		"recommend.service_p50_us":    percentile(service, 0.50),
		"recommend.service_p99_us":    percentile(service, 0.99),
		"recommend.queue_p99_us":      percentile(queue, 0.99),
		"recommend.batch_call_p50_ms": median(batchCalls) / 1e6,
		"recommend.reload_s":          median(rl),
		"recommend.mark_seen_s":       s.times["mark"].Seconds(),
		"mf.load_s":                   s.times["load"].Seconds(),
		"dataset.read_text_s":         s.times["read"].Seconds(),
		"loadgen.late_p99_ms":         percentile(late, 0.99),
	}
	if busy > 0 {
		m["recommend.items_scored_per_s"] = scored / busy
	}
	if info, err := os.Stat(p.ratings); err == nil && s.times["read"] > 0 {
		m["dataset.read_text_mib_per_s"] = float64(info.Size()) / (1 << 20) / s.times["read"].Seconds()
	}
	return m
}

// seenSet is the oracle's own per-user sorted list of rated items, built
// from the ratings independently of the service.
type seenSet [][]int32

func seenLists(r *sparse.COO) seenSet {
	s := make(seenSet, r.Rows)
	for _, e := range r.Entries {
		s[e.U] = append(s[e.U], e.I)
	}
	for _, row := range s {
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
	}
	return s
}

func (s seenSet) has(u, i int32) bool {
	row := s[u]
	k := sort.Search(len(row), func(j int) bool { return row[j] >= i })
	return k < len(row) && row[k] == i
}

// oracle is the brute-force top-N reference: score every unseen item,
// keep the best n by descending score, ties by ascending item ID.
type oracle struct {
	model *mf.Factors
	seen  seenSet
	memo  map[int32][]recommend.Item
}

func newOracle(model *mf.Factors, seen seenSet) *oracle {
	return &oracle{model: model, seen: seen, memo: map[int32][]recommend.Item{}}
}

func (o *oracle) topN(u int32) []recommend.Item {
	if r, ok := o.memo[u]; ok {
		return r
	}
	better := func(a, b recommend.Item) bool {
		return a.Score > b.Score || (a.Score == b.Score && a.ID < b.ID)
	}
	best := make([]recommend.Item, 0, topN+1)
	row, c := o.seen[u], 0
	for i := int32(0); i < int32(o.model.N); i++ {
		for c < len(row) && row[c] < i {
			c++
		}
		if c < len(row) && row[c] == i {
			continue
		}
		it := recommend.Item{ID: i, Score: o.model.Predict(u, i)}
		if len(best) == topN && !better(it, best[topN-1]) {
			continue
		}
		k := len(best)
		best = append(best, it)
		for k > 0 && better(it, best[k-1]) {
			best[k] = best[k-1]
			k--
		}
		best[k] = it
		if len(best) > topN {
			best = best[:topN]
		}
	}
	o.memo[u] = best
	return best
}

func sameItems(a, b []recommend.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
