package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"hccmf/internal/comm"
	commnet "hccmf/internal/comm/net"
	"hccmf/internal/core"
	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// Training workload parameters. netflix-synth is the preset path that
// hccmf-train uses: the program generates the data inside core.Run.
// ml20m-tcp ingests the benchmark's own binary file and trains against an
// in-process parameter server over loopback TCP.
const (
	netflixScale  = 0.05
	netflixEpochs = 20
	ml20mEpochs   = 10
	trainK        = 32
	testFrac      = 0.1
)

// rmseCeiling is the held-out RMSE a finished job must beat. The planted
// noise is 0.45 (netflix preset) and 0.5 (ml20m-tcp), so a model that
// learns nothing sits near the ratings' spread, well above these.
var rmseCeiling = map[string]float64{"netflix-synth": 0.95, "ml20m-tcp": 1.0}

// jobResult is what one training job (one child process) reports.
type jobResult struct {
	SetupS       float64            `json:"setup_s"`
	TimeToModelS float64            `json:"time_to_model_s"`
	UpdatesPerS  float64            `json:"train_updates_per_s"`
	FinalRMSE    float64            `json:"final_rmse"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Problems     []string           `json:"problems,omitempty"`
	Fingerprint  string             `json:"fingerprint,omitempty"`
	Plan         string             `json:"plan"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
}

func (r *jobResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// jobTimes are the measured instants of one job, on the job's clock.
type jobTimes struct {
	start, readEnd, splitEnd, runStart, runEnd, saveEnd time.Duration
}

// evalThreads is core.Run's default evaluation parallelism. RMSEParallel's
// summation order follows the thread count, so the saved-model check must
// use the same count to reproduce final_rmse exactly.
func evalThreads() int { return min(runtime.GOMAXPROCS(0), 4) }

// runTrainJob runs one job: input → core.Run → saved model, then checks
// the outputs. The job that has p.model set keeps its model there for the
// serving stage; on netflix-synth it also writes its ratings to p.ratings,
// untimed. Traced, it also times the seam-less calls standalone and turns
// the recording into spans and per-layer metrics.
func runTrainJob(p pipeline, job int, traced bool) jobResult {
	base := time.Now()
	clock := func() time.Duration { return time.Since(base) }
	rec := newRecorder(clock, traced)
	activeRecorder.Store(rec)
	defer activeRecorder.Store(nil)

	var res jobResult
	var t jobTimes
	var srv *commnet.Server
	var cfg core.RunConfig
	var readBytes int64
	t.start = clock()
	switch p.workload {
	case "netflix-synth":
		cfg = core.RunConfig{
			Spec: dataset.Netflix, MaterializeScale: netflixScale, Epochs: netflixEpochs,
			TransportSpec: comm.Spec{Kind: kindPrefix + comm.KindShared},
		}
		t.readEnd, t.splitEnd = t.start, t.start
	case "ml20m-tcp":
		path := p.inputs.path(binRatingsFile)
		all, err := dataset.ReadRatingsFile(path, runtime.GOMAXPROCS(0))
		t.readEnd = clock()
		if err != nil {
			res.problem("ingest: %v", err)
			return finishFailed(res, rec)
		}
		if info, err := os.Stat(path); err == nil {
			readBytes = info.Size()
		}
		if all.Rows != p.rows || all.Cols != p.cols || all.NNZ() != p.nnz {
			res.problem("ingest: got %dx%d nnz=%d, want %dx%d nnz=%d",
				all.Rows, all.Cols, all.NNZ(), p.rows, p.cols, p.nnz)
		}
		train, test, err := all.SplitTrainTest(sparse.NewRand(p.seed), testFrac)
		t.splitEnd = clock()
		if err != nil {
			res.problem("split: %v", err)
			return finishFailed(res, rec)
		}
		spec := dataset.MovieLens20M
		spec.Name = "ml20m-synth"
		spec.M, spec.N, spec.NNZ = all.Rows, all.Cols, int64(all.NNZ())
		spec.Rank = trainK
		srv, err = commnet.Listen("127.0.0.1:0", commnet.ServerConfig{})
		if err != nil {
			res.problem("listen: %v", err)
			return finishFailed(res, rec)
		}
		defer srv.Close()
		cfg = core.RunConfig{
			Spec: spec, Epochs: ml20mEpochs,
			Data:          &dataset.Dataset{Spec: spec, Train: train, Test: test},
			TransportSpec: comm.Spec{Kind: kindPrefix + commnet.Kind, Addr: srv.Addr()},
		}
	default:
		res.problem("unknown training workload %q", p.workload)
		return finishFailed(res, rec)
	}
	cfg.Platform = core.PaperPlatformOverall()
	cfg.RealK = trainK
	cfg.Seed = p.seed
	cfg.OnEpoch = rec.onEpoch

	t.runStart = clock()
	out, err := core.Run(cfg)
	t.runEnd = clock()
	if err != nil {
		res.problem("core.Run: %v", err)
		return finishFailed(res, rec)
	}
	modelPath := p.model
	if modelPath == "" {
		modelPath = filepath.Join(workDir(p.root), fmt.Sprintf("%s-%d-%d.model", p.workload, os.Getpid(), job))
		defer os.Remove(modelPath)
	}
	if err := saveModel(modelPath, out.Model); err != nil {
		res.problem("save: %v", err)
		return finishFailed(res, rec)
	}
	t.saveEnd = clock()

	first := time.Duration(rec.firstPull.Load())
	if first < 0 {
		res.problem("no Pull was recorded")
		return finishFailed(res, rec)
	}
	rec.mu.Lock()
	epochs := append([]time.Duration(nil), rec.epochs...)
	curve := append([]float64(nil), rec.rmse...)
	rec.mu.Unlock()
	train, test := out.TrainedData.Train, out.TrainedData.Test
	res.Plan = out.Plan.String()
	res.SetupS = (first - t.start).Seconds()
	res.TimeToModelS = (t.saveEnd - t.start).Seconds()
	res.FinalRMSE = out.FinalRMSE
	if len(epochs) > 0 {
		res.UpdatesPerS = float64(train.NNZ()) * float64(cfg.Epochs) / (epochs[len(epochs)-1] - first).Seconds()
	}
	res.Attempted = 1 + rec.calls.Load()
	res.Failed = rec.failed.Load()

	checkTraining(&res, p, cfg, out, curve)
	checkSavedModel(&res, modelPath, test, out.FinalRMSE)
	if p.workload == "netflix-synth" {
		res.Fingerprint = fmt.Sprintf("%016x-%016x", fnv1a(train), fnv1a(test))
		if p.ratings != "" {
			if err := writeSeenRatings(p.ratings, train, test); err != nil {
				res.problem("writing the seen ratings: %v", err)
			}
		}
	}
	res.Failed += int64(len(res.Problems))

	if traced {
		var frames, netErrors int64
		if srv != nil {
			st := srv.Stats()
			frames, netErrors = st.Frames, st.Errors
		}
		res.Spans, res.Layers = traceTrainJob(job, cfg, out, rec, t, epochs, first, readBytes, frames, netErrors)
	}
	return res
}

func finishFailed(res jobResult, rec *recorder) jobResult {
	res.Attempted = 1 + rec.calls.Load()
	res.Failed = 1 + rec.failed.Load() + int64(len(res.Problems))
	return res
}

func saveModel(path string, f *mf.Factors) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mf.WriteFactors(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// checkTraining verifies the trained job's shape and convergence.
func checkTraining(res *jobResult, p pipeline, cfg core.RunConfig, out *core.Result, curve []float64) {
	train, test := out.TrainedData.Train, out.TrainedData.Test
	rows, cols := train.Rows, train.Cols
	if out.Plan.Transposed {
		rows, cols = cols, rows
	}
	if rows != p.rows || cols != p.cols || train.NNZ()+test.NNZ() != p.nnz {
		res.problem("data: got %dx%d nnz=%d, want %dx%d nnz=%d",
			rows, cols, train.NNZ()+test.NNZ(), p.rows, p.cols, p.nnz)
	}
	if m := out.Model; m.M != train.Rows || m.N != train.Cols || m.K != trainK {
		res.problem("model is %dx%d k=%d, want %dx%d k=%d", m.M, m.N, m.K, train.Rows, train.Cols, trainK)
	}
	if len(curve) != cfg.Epochs {
		res.problem("OnEpoch ran %d times, want %d", len(curve), cfg.Epochs)
		return
	}
	initial := out.Curve.Points[0].RMSE
	for e, r := range curve {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			res.problem("epoch %d RMSE %v", e+1, r)
			return
		}
	}
	final := curve[len(curve)-1]
	if !(final < curve[0] && curve[0] < initial) {
		res.problem("RMSE does not fall: initial %.5f, epoch 1 %.5f, final %.5f", initial, curve[0], final)
	}
	if final != out.FinalRMSE {
		res.problem("final RMSE %.6f differs from the last OnEpoch value %.6f", out.FinalRMSE, final)
	}
	if ceiling := rmseCeiling[p.workload]; !(final <= ceiling) {
		res.problem("final RMSE %.5f above the ceiling %.2f", final, ceiling)
	}
}

// checkSavedModel reloads the saved model and re-evaluates it on the test
// split; the result must reproduce final_rmse.
func checkSavedModel(res *jobResult, path string, test *sparse.COO, final float64) {
	f, err := os.Open(path)
	if err != nil {
		res.problem("reload: %v", err)
		return
	}
	defer f.Close()
	model, err := mf.ReadFactors(f)
	if err != nil {
		res.problem("reload: %v", err)
		return
	}
	got := mf.RMSEParallel(model, test.Entries, evalThreads())
	if math.Abs(got-final) > 1e-9*final {
		res.problem("reloaded model RMSE %.9f, want final_rmse %.9f", got, final)
	}
}

// writeSeenRatings writes every rating of the trained data, train and
// test, as the text file the server loads for its seen set.
func writeSeenRatings(path string, train, test *sparse.COO) error {
	all := sparse.NewCOO(train.Rows, train.Cols, train.NNZ()+test.NNZ())
	all.Entries = append(append(all.Entries, train.Entries...), test.Entries...)
	return writeFile(path, func(w *bufio.Writer) error { return dataset.WriteText(w, all) })
}

// standaloneTimes times the calls core.Run makes with no seam, on the
// job's own inputs, after the job has finished.
type standaloneTimes struct {
	plan, simulate, generate, shard, eval time.Duration
}

func timeStandalone(cfg core.RunConfig, out *core.Result) standaloneTimes {
	var st standaloneTimes
	t0 := time.Now()
	plan, err := core.PlanRun(cfg.Platform, cfg.Spec, cfg.Plan)
	st.plan = time.Since(t0)
	if err != nil {
		return st
	}
	t0 = time.Now()
	_, _ = core.SimulateRun(cfg.Platform, cfg.Spec, plan, cfg.Epochs)
	st.simulate = time.Since(t0)
	if cfg.Data == nil {
		if scaled, err := cfg.Spec.Scaled(cfg.MaterializeScale); err == nil {
			t0 = time.Now()
			_, _ = dataset.Generate(scaled, cfg.Seed)
			st.generate = time.Since(t0)
		}
	}
	runtime.GC()
	t0 = time.Now()
	_, _ = core.BuildWorkerConfs(plan.Platform, plan, out.TrainedData.Train, cfg.Tuning)
	st.shard = time.Since(t0)
	runtime.GC()
	evals := make([]float64, 3)
	for i := range evals {
		t0 = time.Now()
		mf.RMSEParallel(out.Model, out.TrainedData.Test.Entries, evalThreads())
		evals[i] = float64(time.Since(t0))
	}
	st.eval = time.Duration(median(evals))
	return st
}

// traceTrainJob turns one traced job into spans and per-layer metrics.
//
// Epoch e spans from the previous OnEpoch (the first Pull for epoch 0) to
// its own OnEpoch. Inside it, transfers are measured; the rest is derived
// from them:
//   - bulk-synchronous plans: the engine window runs from the last Pull's
//     end to the first Push's start (every worker computes in between);
//   - async plans: each stream's compute runs from its slice Pull's end
//     to the Push of the same slice from the same worker buffer;
//   - the server tail runs from the last Push's end to OnEpoch; it holds
//     the fold, the publish and the held-out evaluation.
//
// ps.barrier_idle_share is the worker time spent waiting for the slowest
// peer that transfers reveal: at the pull and push barriers of a bulk
// epoch, and from a worker's last transfer to the epoch's last in async
// epochs. Compute imbalance inside a bulk engine window is not visible
// from transfers and is not counted.
func traceTrainJob(job int, cfg core.RunConfig, out *core.Result, rec *recorder, t jobTimes,
	epochs []time.Duration, first time.Duration, readBytes, frames, netErrors int64) ([]span, map[string]float64) {
	st := timeStandalone(cfg, out)
	rec.mu.Lock()
	xfers := append([]xferSpan(nil), rec.spans...)
	rec.mu.Unlock()
	sort.Slice(xfers, func(a, b int) bool { return xfers[a].start < xfers[b].start })
	async := out.Plan.Strategy.Streams > 1
	nnz := float64(out.TrainedData.Train.NNZ())
	E := len(epochs)

	tr := &tracer{}
	root := tr.add(0, job, "job", "main", "", "measured", t.start, t.saveEnd)
	if t.readEnd > t.start {
		tr.add(root, job, "dataset.ReadRatingsFile", "main", "dataset.read", "measured", t.start, t.readEnd)
		tr.add(root, job, "sparse.SplitTrainTest", "main", "sparse.split", "measured", t.readEnd, t.splitEnd)
	}
	run := tr.add(root, job, "core.Run", "main", "", "measured", t.runStart, t.runEnd)
	pre := tr.add(run, job, "core.prestart", "main", "", "derived", t.runStart, first)
	at := t.runStart
	place := func(name, layer string, d time.Duration) {
		if d > 0 {
			tr.add(pre, job, name, "main", layer, "standalone", at, at+d)
			at += d
		}
	}
	place("core.PlanRun", "core.plan", st.plan)
	place("core.SimulateRun", "core.simulate", st.simulate)
	place("dataset.Generate", "dataset.generate", st.generate)
	place("core.BuildWorkerConfs", "core.shard", st.shard)
	tr.add(pre, job, "mf.RMSEParallel", "main", "mf.eval", "standalone", first-st.eval, first)

	// Worker tracks: a worker's local matrix base address → its index,
	// learned from pushes (which carry the owner).
	owner := map[uintptr]int{}
	for _, x := range xfers {
		if x.op == "push" {
			owner[x.base] = x.owner
		}
	}
	track := func(x xferSpan) string {
		if w, ok := owner[x.base]; ok && x.op != "sync" {
			return "worker-" + strconv.Itoa(w)
		}
		return "server"
	}
	layerOf := map[string]string{"pull": "comm.pull", "push": "comm.push", "sync": "comm.publish"}

	var (
		pullS, pushS, publishS, windowS, streamS, tailS float64
		bus, wire, copies                               int64
		idle, active                                    float64
		epochDurs                                       []float64
	)
	for _, x := range xfers {
		d := (x.end - x.start).Seconds()
		switch x.op {
		case "pull":
			pullS += d
		case "push":
			pushS += d
		case "sync":
			publishS += d
		}
		bus += x.stats.BusBytes
		wire += x.stats.WireBytes
		copies += int64(x.stats.Copies)
		if x.end <= first {
			tr.add(pre, job, "comm."+x.op, track(x), layerOf[x.op], "measured", x.start, x.end)
		}
	}
	workers := max(len(out.Plan.Platform.Workers), 1)
	for e := 0; e < E; e++ {
		lo := first
		if e > 0 {
			lo = epochs[e-1]
		}
		hi := epochs[e]
		epochDurs = append(epochDurs, (hi - lo).Seconds())
		ep := tr.add(run, job, "ps.epoch "+strconv.Itoa(e), "main", "", "derived", lo, hi)
		// Before its first Pull an epoch snapshots Q and (async) cuts each
		// worker's shard into slice chunks.
		if s := firstStartIn(xfers, lo, hi); s > lo {
			tr.add(ep, job, "ps.epoch_start", "server", "ps.epoch_start", "derived", lo, s)
		}
		var in []xferSpan
		for _, x := range xfers {
			if x.start >= lo && x.start < hi && x.start >= first {
				in = append(in, x)
			}
		}
		var maxPullEnd, minPushStart, maxPushEnd, firstStart time.Duration = 0, -1, 0, -1
		lastEnd := map[int]time.Duration{} // per worker
		pullEnd := map[int]time.Duration{}
		for _, x := range in {
			if firstStart < 0 || x.start < firstStart {
				firstStart = x.start
			}
			switch x.op {
			case "pull":
				maxPullEnd = max(maxPullEnd, x.end)
				pullEnd[owner[x.base]] = max(pullEnd[owner[x.base]], x.end)
			case "push":
				if minPushStart < 0 || x.start < minPushStart {
					minPushStart = x.start
				}
				maxPushEnd = max(maxPushEnd, x.end)
			}
			if x.op != "sync" {
				lastEnd[owner[x.base]] = max(lastEnd[owner[x.base]], x.end)
			}
		}
		if maxPushEnd == 0 {
			maxPushEnd = lo
		}
		tail := tr.add(ep, job, "ps.server_tail", "server", "ps.server_tail", "derived", maxPushEnd, hi)
		tailS += (hi - maxPushEnd - st.eval).Seconds()
		tr.add(tail, job, "mf.RMSEParallel", "server", "mf.eval", "standalone", hi-st.eval, hi)
		for _, x := range in {
			parent := ep
			if x.op == "sync" && x.start >= maxPushEnd {
				parent = tail
			}
			tr.add(parent, job, "comm."+x.op, track(x), layerOf[x.op], "measured", x.start, x.end)
		}
		if !async {
			if minPushStart > maxPullEnd {
				tr.add(ep, job, "mf.engine_window", "main", "mf.engine", "derived", maxPullEnd, minPushStart)
				windowS += (minPushStart - maxPullEnd).Seconds()
			}
			for w, end := range pullEnd {
				idle += (maxPullEnd - end).Seconds() + (maxPushEnd - lastEnd[w]).Seconds()
			}
		} else {
			// Pair each Q slice pull with the push of the same slice from
			// the same worker buffer.
			type key struct {
				base   uintptr
				lo, hi int
			}
			pulled := map[key]time.Duration{}
			for _, x := range in {
				if x.matrix != comm.MatrixQ {
					continue
				}
				k := key{x.base, x.lo, x.hi}
				switch x.op {
				case "pull":
					pulled[k] = x.end
				case "push":
					if end, ok := pulled[k]; ok && x.start > end {
						tr.add(ep, job, "ps.stream_compute", track(x), "ps.stream_compute", "derived", end, x.start)
						streamS += (x.start - end).Seconds()
					}
				}
			}
			for _, end := range lastEnd {
				idle += (maxPushEnd - end).Seconds()
			}
		}
		if firstStart >= 0 {
			active += float64(workers) * (maxPushEnd - firstStart).Seconds()
		}
	}
	if E > 0 {
		tr.add(run, job, "core.finish", "main", "core.finish", "derived", epochs[E-1], t.runEnd)
	}
	tr.add(root, job, "mf.WriteFactors", "main", "mf.save", "measured", t.runEnd, t.saveEnd)

	trainWindow := 0.0
	if E > 0 {
		trainWindow = (epochs[E-1] - first).Seconds()
	}
	m := map[string]float64{
		"dataset.generate_s":  st.generate.Seconds(),
		"dataset.read_s":      (t.readEnd - t.start).Seconds(),
		"sparse.split_s":      (t.splitEnd - t.readEnd).Seconds(),
		"core.prestart_s":     (first - t.runStart).Seconds(),
		"core.plan_s":         st.plan.Seconds(),
		"core.simulate_s":     st.simulate.Seconds(),
		"core.shard_s":        st.shard.Seconds(),
		"mf.engine_window_s":  windowS,
		"ps.stream_compute_s": streamS,
		"ps.server_tail_s":    tailS,
		"ps.epoch_p50_s":      median(epochDurs),
		"comm.pull_s":         pullS,
		"comm.push_s":         pushS,
		"comm.publish_s":      publishS,
		"comm.calls":          float64(rec.calls.Load()),
		"comm.bus_mib":        float64(bus) / (1 << 20),
		"comm.wire_mib":       float64(wire) / (1 << 20),
		"comm.copies":         float64(copies),
		"comm.failed":         float64(rec.failed.Load()),
		"commnet.frames":      float64(frames),
		"commnet.errors":      float64(netErrors),
		"mf.eval_s":           st.eval.Seconds() * float64(E+1),
		"mf.save_s":           (t.saveEnd - t.runEnd).Seconds(),
	}
	if readBytes > 0 && t.readEnd > t.start {
		m["dataset.read_mib_per_s"] = float64(readBytes) / (1 << 20) / (t.readEnd - t.start).Seconds()
	}
	if windowS > 0 {
		m["mf.engine_updates_per_s"] = nnz * float64(E) / windowS
	}
	if active > 0 {
		m["ps.barrier_idle_share"] = idle / active
	}
	if trainWindow > 0 {
		m["mf.eval_share"] = st.eval.Seconds() * float64(E) / trainWindow
	}
	return tr.spans, m
}

// firstStartIn is the start of the first transfer in [lo, hi), or lo.
func firstStartIn(xfers []xferSpan, lo, hi time.Duration) time.Duration {
	for _, x := range xfers { // sorted by start
		if x.start >= lo && x.start < hi {
			return x.start
		}
	}
	return lo
}
