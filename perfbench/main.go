// Command perfbench is the end-to-end benchmark of HCC-MF: ratings →
// trained model → served top-N. It runs one workload per invocation:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs the whole pipeline; the two differ in what each
// stage has to do (BENCHMARK.json records why each exists):
//
//	netflix-synth  core.Run generates the Netflix preset at scale 0.05 and
//	               trains over shared memory; the served catalog fits in L2
//	ml20m-tcp      binary ingest → split → core.Run over loopback TCP; the
//	               served 66k-item catalog does not fit in L2
//
// The first half of a run's seconds trains (at least minJobs jobs), the
// second half serves the model the first job saved. Each job and each
// serving process is a child process of its own, so its peak RSS is its
// own. The last line of standard output is the result object; the line
// before it stamps the machine shape. With --trace 1 the run also writes a
// Chrome trace_event file and a per-layer table under
// .bench_build/perfbench/out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
)

// minJobs is the fewest training jobs one run makes, so set-up and the
// other per-job figures are medians of at least three.
const minJobs = 3

// trainShare is the share of a run's seconds spent training; serving
// gets the rest.
const trainShare = 0.5

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

var workloads = []string{"netflix-synth", "ml20m-tcp"}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 36, "measured time of one run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	role := flag.String("role", "", "internal: child process role (job, serve-setup, serve)")
	job := flag.Int("job", 0, "internal: job index of a child")
	traced := flag.Bool("traced", false, "internal: trace this child")
	out := flag.String("out", "", "internal: result file of a child")
	model := flag.String("model", "", "internal: model file a job keeps or a server serves")
	ratings := flag.String("ratings", "", "internal: seen-ratings text file a job writes or a server loads")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", ")))
	}
	if *role != "" {
		p, err := newPipeline(root, *workload, *seed, *model, *ratings)
		if err != nil {
			fatal(err)
		}
		if err := runChild(p, *role, *seconds, *job, *traced, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds %v must be positive", *seconds))
	}
	decl, err := readDeclaration(root)
	if err != nil {
		fatal(err)
	}
	if err := runParent(root, decl, *workload, *seed, *seconds, *trace == 1); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// declaration is the part of BENCHMARK.json the benchmark reads: metric
// names and units.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(root string) (declaration, error) {
	var d declaration
	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// pipeline is one run's workload: where its stages read and leave files,
// and the shape the data, the trained model and the seen set must have.
type pipeline struct {
	root     string
	workload string
	seed     uint64
	inputs   inputSet // ml20m-tcp's generated files; empty for netflix-synth
	model    string   // the model the first job keeps and the server serves
	ratings  string   // the seen ratings (text) the server loads
	rows     int
	cols     int
	nnz      int
}

// newPipeline resolves a run's files. model and ratings may be empty in
// the parent, which picks them.
func newPipeline(root, workload string, seed uint64, model, ratings string) (pipeline, error) {
	p := pipeline{root: root, workload: workload, seed: seed, model: model, ratings: ratings}
	if workload == "netflix-synth" {
		scaled, err := dataset.Netflix.Scaled(netflixScale)
		if err != nil {
			return p, err
		}
		p.rows, p.cols, p.nnz = scaled.M, scaled.N, int(scaled.NNZ)
		return p, nil
	}
	var err error
	if p.inputs, err = prepareInputs(root, seed); err != nil {
		return p, fmt.Errorf("preparing inputs: %w", err)
	}
	p.rows, p.cols, p.nnz = p.inputs.Rows, p.inputs.Cols, p.inputs.NNZ
	if p.ratings == "" {
		p.ratings = p.inputs.path(textRatingsFile)
	}
	return p, nil
}

func runChild(p pipeline, role string, seconds float64, job int, traced bool, out string) error {
	var res any
	switch role {
	case "job":
		res = runTrainJob(p, job, traced)
	case "serve":
		res = runServe(p, seconds, job, traced)
	case "serve-setup":
		res = runServeSetupOnly(p)
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	return writeJSON(out, res)
}

func workDir(root string) string { return filepath.Join(root, ".bench_build", "perfbench", "work") }

// child is one child process to run: its role and the flags that differ
// between children of one run.
type child struct {
	role    string
	job     int
	traced  bool
	seconds float64
	model   string // kept (job 0) or served (serve roles)
	ratings string // written (netflix-synth job 0) or loaded (serve roles)
}

// spawn runs one child process to completion, decodes its result into
// dst, and returns its peak RSS in MiB.
func spawn(p pipeline, c child, dst any) (float64, error) {
	out := filepath.Join(workDir(p.root), fmt.Sprintf("result-%d-%s-%d.json", os.Getpid(), c.role, c.job))
	defer os.Remove(out)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-role", c.role, "-workload", p.workload, "-seed", strconv.FormatUint(p.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-job", strconv.Itoa(c.job),
		"-traced="+strconv.FormatBool(c.traced), "-out", out, "-model", c.model, "-ratings", c.ratings)
	cmd.Dir = p.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child %d: %w", c.role, c.job, err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	doc, err := os.ReadFile(out)
	if err != nil {
		return rss, err
	}
	return rss, json.Unmarshal(doc, dst)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is what the parent gathered: per-metric samples, counts, and
// (traced) spans and layer values.
type run struct {
	e2e       map[string][]float64
	layers    map[string][]float64
	attempted int64
	failed    int64
	problems  []string
	spans     []span
	notes     map[string]any
}

// addSpans merges one child's spans, renumbering them after those
// already held so IDs stay unique across children.
func (r *run) addSpans(spans []span) {
	offset := len(r.spans)
	for _, s := range spans {
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		r.spans = append(r.spans, s)
	}
}

// fail counts one failed operation.
func (r *run) fail(problem string) {
	r.attempted++
	r.failed++
	r.problems = append(r.problems, problem)
}

func newRun() *run {
	return &run{e2e: map[string][]float64{}, layers: map[string][]float64{}, notes: map[string]any{}}
}

func runParent(root string, decl declaration, workload string, seed uint64, seconds float64, trace bool) error {
	// Inputs are prepared before anything is timed.
	p, err := newPipeline(root, workload, seed, "", "")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir(root), 0o755); err != nil {
		return err
	}
	p.model = filepath.Join(workDir(root), fmt.Sprintf("served-%d.model", os.Getpid()))
	defer os.Remove(p.model)
	if workload == "netflix-synth" {
		// The data exists only inside core.Run, so the kept job writes it.
		p.ratings = filepath.Join(workDir(root), fmt.Sprintf("served-%d.txt", os.Getpid()))
		defer os.Remove(p.ratings)
	}

	r := newRun()
	steal0, total0 := hostCPUTicks()
	runTrainParent(p, r, trainShare*seconds, trace)
	runServeParent(p, r, (1-trainShare)*seconds, trace)
	for _, msg := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	if r.attempted > 0 {
		r.layers["error_rate"] = []float64{float64(r.failed) / float64(r.attempted)}
	}
	// Set-up is the training job's (to its first Pull) plus the server's
	// (to ready); the run's peak RSS is the larger of a training job's and
	// a ready server's.
	trainSetup, serveSetup := median(r.e2e["train_setup_s"]), median(r.e2e["serve_setup_s"])
	r.e2e["setup_s"] = []float64{trainSetup + serveSetup}
	r.e2e["peak_rss_mib"] = []float64{max(median(r.e2e["train_rss_mib"]), median(r.e2e["serve_rss_mib"]))}
	r.notes["train_setup_s"], r.notes["serve_setup_s"] = trainSetup, serveSetup

	notes := map[string]any{"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
		"shape": machineShape(p)}
	// Time the hypervisor gave this VM's CPUs to others during the run: a
	// run with a high share was slowed by the host, not by the program.
	if steal1, total1 := hostCPUTicks(); total1 > total0 {
		notes["host_steal_share"] = float64(steal1-steal0) / float64(total1-total0)
	}
	for k, v := range r.notes {
		notes[k] = v
	}
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		rows, unattributed := layerTable(r.spans)
		r.layers["trace.unattributed_share"] = []float64{unattributed}
		layerVals := map[string]float64{}
		for _, m := range decl.PerLayer {
			v := median(r.layers[m.Name]) // 0 where the layer is not exercised
			layerVals[m.Name] = v
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		if err := writeTraceOutputs(root, workload, seed, r.spans, rows, unattributed, layerVals, notes); err != nil {
			return err
		}
	} else {
		for _, m := range decl.EndToEnd {
			res.Metrics[m.Name] = metricValue{Value: median(r.e2e[m.Name]), Unit: m.Unit}
		}
	}
	stamp, err := json.Marshal(map[string]any{"perfbench": notes})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(stamp))
	fmt.Println(string(line))
	return nil
}

// runTrainParent starts training jobs while the training time lasts (at
// least minJobs). Job 0 keeps its model (and, on netflix-synth, writes its
// ratings) for the serving stage. Traced, jobs alternate untraced and
// traced, so the tracing overhead is the ratio of the two groups' time to
// model.
func runTrainParent(p pipeline, r *run, seconds float64, trace bool) {
	start := time.Now()
	var plain, tracedTTM []float64
	fingerprints := map[string]int{}
	need := minJobs
	if trace {
		need = 4 // two untraced and two traced
	}
	for j := 0; j < need || time.Since(start) < time.Duration(seconds*float64(time.Second)); j++ {
		c := child{role: "job", job: j, traced: trace && j%2 == 1}
		if j == 0 {
			c.model = p.model
			if p.workload == "netflix-synth" {
				c.ratings = p.ratings
			}
		}
		var jr jobResult
		rss, err := spawn(p, c, &jr)
		if err != nil {
			r.fail(err.Error())
			continue
		}
		r.attempted += jr.Attempted
		r.failed += jr.Failed
		r.problems = append(r.problems, jr.Problems...)
		if jr.Fingerprint != "" {
			fingerprints[jr.Fingerprint]++
		}
		r.notes["plan"] = jr.Plan
		if jr.Failed > 0 {
			continue
		}
		if !c.traced {
			plain = append(plain, jr.TimeToModelS)
			r.e2e["train_setup_s"] = append(r.e2e["train_setup_s"], jr.SetupS)
			r.e2e["time_to_model_s"] = append(r.e2e["time_to_model_s"], jr.TimeToModelS)
			r.e2e["train_updates_per_s"] = append(r.e2e["train_updates_per_s"], jr.UpdatesPerS)
			r.e2e["final_rmse"] = append(r.e2e["final_rmse"], jr.FinalRMSE)
			r.e2e["train_rss_mib"] = append(r.e2e["train_rss_mib"], rss)
			continue
		}
		tracedTTM = append(tracedTTM, jr.TimeToModelS)
		for k, v := range jr.Layers {
			r.layers[k] = append(r.layers[k], v)
		}
		r.addSpans(jr.Spans)
	}
	if len(fingerprints) > 1 {
		r.fail(fmt.Sprintf("jobs of one seed generated different data: %v", fingerprints))
	}
	for fp := range fingerprints {
		r.notes["data_fingerprint"] = fp
	}
	r.notes["jobs"] = len(plain) + len(tracedTTM)
	if trace && len(plain) > 0 && len(tracedTTM) > 0 {
		r.layers["trace.overhead_share"] = []float64{median(tracedTTM)/median(plain) - 1}
	}
}

// serveSetupSamples is how many server set-ups a run times: extra
// set-up-only children plus the serving child itself.
const serveSetupSamples = 3

// servedJob numbers the serving children, apart from the training jobs,
// in file names and the trace.
const servedJob = 1000

// runServeParent serves the model job 0 kept: set-up-only children for
// more set-up samples, then the serving child, whose every result is
// checked here once it has exited. Traced, a second, traced serving child
// follows.
func runServeParent(p pipeline, r *run, seconds float64, trace bool) {
	if _, err := os.Stat(p.model); err != nil {
		r.fail(fmt.Sprintf("serving: no trained model: %v", err))
		return
	}
	add := func(sr serveResult) {
		r.attempted += sr.Attempted
		r.failed += sr.Failed
		r.problems = append(r.problems, sr.Problems...)
		if len(sr.Samples) > 0 {
			n, failed, problems := checkServeSamples(p, sr.Samples)
			r.attempted += int64(n)
			r.failed += int64(failed)
			r.problems = append(r.problems, problems...)
			sr.Phases["check"] = [2]int{n, failed}
		}
	}
	base := child{model: p.model, ratings: p.ratings, seconds: seconds}
	for j := 0; j < serveSetupSamples-1; j++ {
		c := base
		c.role, c.job = "serve-setup", servedJob+j
		var sr serveResult
		rss, err := spawn(p, c, &sr)
		if err != nil {
			r.fail(err.Error())
			continue
		}
		add(sr)
		if sr.Failed == 0 {
			r.e2e["serve_setup_s"] = append(r.e2e["serve_setup_s"], sr.SetupS)
			r.e2e["serve_rss_mib"] = append(r.e2e["serve_rss_mib"], rss)
		}
	}
	c := base
	c.role, c.job = "serve", servedJob+serveSetupSamples
	var sr serveResult
	rss, err := spawn(p, c, &sr)
	if err != nil {
		r.fail(err.Error())
		return
	}
	add(sr)
	r.e2e["serve_setup_s"] = append(r.e2e["serve_setup_s"], sr.SetupS)
	// The serving child's RSS also holds the load generator's garbage,
	// which is the benchmark's, so the server's memory is taken from the
	// set-up-only children; this one is a note.
	r.notes["serve_run_rss_mib"] = rss
	r.e2e["topn_p50_ms"] = []float64{sr.P50Ms}
	r.e2e["topn_max_qps"] = []float64{sr.MaxQPS}
	r.e2e["batch_users_per_s"] = []float64{sr.BatchUsersPerS}
	r.notes["topn_p99_ms"] = sr.P99Ms
	r.notes["loadgen_late_p99_ms"] = sr.Layers["loadgen.late_p99_ms"]
	r.notes["phases"] = sr.Phases
	r.notes["rungs"] = sr.Rungs
	if !trace {
		return
	}
	c.traced, c.job = true, c.job+1
	var tsr serveResult
	if _, err := spawn(p, c, &tsr); err != nil {
		r.fail(err.Error())
		return
	}
	add(tsr)
	for k, v := range tsr.Layers {
		r.layers[k] = append(r.layers[k], v)
	}
	r.layers["topn_p99_ms"] = []float64{tsr.P99Ms}
	if sr.P50Ms > 0 {
		r.layers["trace.serve_overhead_share"] = []float64{tsr.P50Ms/sr.P50Ms - 1}
	}
	r.addSpans(tsr.Spans)
}

// writeTraceOutputs writes the Chrome trace and the per-layer table.
func writeTraceOutputs(root, workload string, seed uint64, spans []span, rows []layerRow, unattributed float64,
	layers map[string]float64, notes map[string]any) error {
	dir := filepath.Join(root, ".bench_build", "perfbench", "out", fmt.Sprintf("%s-%d", workload, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := writeChromeTrace(tracePath, spans, notes); err != nil {
		return err
	}
	tablePath := filepath.Join(dir, "layers.txt")
	if err := writeLayerTable(tablePath, rows, unattributed, layers, notes); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace %s, layer table %s\n", tracePath, tablePath)
	return nil
}

// machineShape stamps the result with what makes rows comparable: rows
// from different shapes are never compared. q_bytes is the working set
// of one pass over the items: training's Q, and the served catalog.
func machineShape(p pipeline) map[string]any {
	return map[string]any{
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"goarch":      runtime.GOARCH,
		"go":          runtime.Version(),
		"kernel_tier": mf.KernelName(trainK, false),
		"noasm":       noasm,
		"l2_bytes":    cacheSize(2),
		"l3_bytes":    cacheSize(3),
		"q_bytes":     int64(p.cols) * trainK * 4,
	}
}

// cacheSize reads the per-instance size of cpu0's cache at level, or 0
// where sysfs does not say.
func cacheSize(level int) int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err := os.ReadFile(filepath.Join(d, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		typ, _ := os.ReadFile(filepath.Join(d, "type"))
		if t := strings.TrimSpace(string(typ)); t == "Instruction" {
			continue
		}
		sz, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n * mult
		}
	}
	return 0
}

// hostCPUTicks reads the steal and total tick counts of all CPUs from
// /proc/stat, or zeros where it is not available.
func hostCPUTicks() (steal, total uint64) {
	doc, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(doc), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}
