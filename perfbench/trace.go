package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one traced interval. Spans come from the benchmark's own code
// only: around each public call it makes, around every transfer (through
// the recording transport), and at OnEpoch boundaries. Two kinds are not
// direct measurements and say so in Timing:
//   - "derived": an interval between two measured instants, such as the
//     engine window from the last pull's end to the first push's start;
//   - "standalone": a function that runs inside core.Run with no seam
//     (dataset.Generate, PlanRun, SimulateRun, BuildWorkerConfs,
//     RMSEParallel), timed on its own on the job's inputs after the job
//     and placed where core.Run calls it.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Job    int           `json:"job"`
	Name   string        `json:"name"`
	Track  string        `json:"track"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Timing string        `json:"timing"` // measured | derived | standalone
	// Layer is the per-layer table row the span's self time counts
	// toward; "" marks a structural span (job, core.Run, an epoch) whose
	// self time is unattributed.
	Layer string `json:"layer"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer accumulates spans in memory; they are written when the run ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent, job int, name, track, layer, timing string, start, end time.Duration) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Track: track,
		Start: start, End: end, Timing: timing, Layer: layer})
	return id
}

// selfTimes returns each span's duration minus the union of its
// children's intervals clipped to it. Children of one parent may overlap
// (concurrent workers), so the union, not the sum, is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals inside s.
func covered(s span, kids []span) time.Duration {
	ivs := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			curHi = max(curHi, iv[1])
		default:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer  string
	Spans  int
	TotalS float64
	SelfS  float64
	Share  float64 // self time over the roots' wall time
}

// layerTable sums self time per layer over all spans, and returns the
// unattributed share: the self time of structural spans over the total
// duration of the root spans.
func layerTable(spans []span) ([]layerRow, float64) {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	var roots, unattributed time.Duration
	for _, s := range spans {
		if s.Parent == 0 {
			roots += s.dur()
		}
		if s.Layer == "" {
			unattributed += self[s.ID]
			continue
		}
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			rows[s.Layer] = r
		}
		r.Spans++
		r.TotalS += s.dur().Seconds()
		r.SelfS += self[s.ID].Seconds()
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if roots > 0 {
			r.Share = r.SelfS / roots.Seconds()
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfS > out[b].SelfS })
	if roots == 0 {
		return out, 0
	}
	return out, unattributed.Seconds() / roots.Seconds()
}

// writeChromeTrace writes spans as a Chrome trace_event document (loads in
// Perfetto and chrome://tracing): one process per job or server, one
// thread per track, complete ("X") events in microseconds.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	pids := map[int]bool{}
	var events []event
	for _, s := range spans {
		if !pids[s.Job] {
			pids[s.Job] = true
			name := fmt.Sprintf("job %d", s.Job)
			if s.Job >= servedJob {
				name = fmt.Sprintf("server %d", s.Job-servedJob)
			}
			events = append(events,
				event{Name: "process_name", Ph: "M", Pid: s.Job, Args: map[string]any{"name": name}})
		}
		key := fmt.Sprintf("%d/%s", s.Job, s.Track)
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
			events = append(events,
				event{Name: "thread_name", Ph: "M", Pid: s.Job, Tid: tid, Args: map[string]any{"name": s.Track}})
		}
		cat := s.Layer
		if cat == "" {
			cat = "structural"
		}
		events = append(events, event{
			Name: s.Name, Cat: cat, Ph: "X", Pid: s.Job, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "timing": s.Timing},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
	return writeJSON(path, doc)
}

// writeLayerTable writes the per-layer table as aligned text.
func writeLayerTable(path string, rows []layerRow, unattributed float64, metrics map[string]float64, stamp map[string]any) error {
	var b strings.Builder
	stampDoc, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "# shape %s\n", stampDoc)
	fmt.Fprintf(&b, "%-28s %7s %12s %12s %9s\n", "layer", "spans", "total_s", "self_s", "self/wall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %7d %12.6f %12.6f %9.4f\n", r.Layer, r.Spans, r.TotalS, r.SelfS, r.Share)
	}
	fmt.Fprintf(&b, "%-28s %7s %12s %12s %9.4f\n", "(unattributed)", "", "", "", unattributed)
	fmt.Fprintln(&b, "\n# per-layer metric, value, end-to-end metric it should move @ workloads")
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %14.6g   %s\n", n, metrics[n], layerTargets[n])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTargets records, before any measurement, which end-to-end metric
// each per-layer metric should move and on which workload. A layer a
// workload bypasses reads 0 there.
var layerTargets = map[string]string{
	"dataset.generate_s":           "setup_s, time_to_model_s @ netflix-synth",
	"dataset.read_s":               "setup_s, time_to_model_s @ ml20m-tcp (binary ingest)",
	"dataset.read_mib_per_s":       "setup_s, time_to_model_s @ ml20m-tcp (binary ingest)",
	"dataset.read_text_s":          "setup_s @ both (the server's text seen set)",
	"dataset.read_text_mib_per_s":  "setup_s @ both (the server's text seen set)",
	"sparse.split_s":               "setup_s @ ml20m-tcp",
	"core.prestart_s":              "setup_s @ both",
	"core.plan_s":                  "setup_s @ both",
	"core.simulate_s":              "setup_s @ both",
	"core.shard_s":                 "setup_s @ both",
	"mf.engine_window_s":           "train_updates_per_s @ netflix-synth (0 on ml20m-tcp)",
	"mf.engine_updates_per_s":      "train_updates_per_s @ netflix-synth (0 on ml20m-tcp)",
	"ps.stream_compute_s":          "train_updates_per_s @ ml20m-tcp (0 on netflix-synth)",
	"ps.server_tail_s":             "train_updates_per_s @ ml20m-tcp, netflix-synth",
	"ps.barrier_idle_share":        "train_updates_per_s @ ml20m-tcp, netflix-synth",
	"ps.epoch_p50_s":               "train_updates_per_s @ ml20m-tcp, netflix-synth",
	"comm.pull_s":                  "train_updates_per_s @ ml20m-tcp",
	"comm.push_s":                  "train_updates_per_s @ ml20m-tcp",
	"comm.publish_s":               "train_updates_per_s @ ml20m-tcp",
	"comm.calls":                   "train_updates_per_s @ ml20m-tcp",
	"comm.bus_mib":                 "train_updates_per_s @ ml20m-tcp",
	"comm.wire_mib":                "train_updates_per_s @ ml20m-tcp (0 on netflix-synth)",
	"comm.copies":                  "train_updates_per_s @ ml20m-tcp",
	"comm.failed":                  "error_rate @ ml20m-tcp",
	"commnet.frames":               "train_updates_per_s @ ml20m-tcp",
	"commnet.errors":               "error_rate @ ml20m-tcp",
	"mf.eval_s":                    "train_updates_per_s @ both",
	"mf.eval_share":                "train_updates_per_s @ both",
	"mf.save_s":                    "time_to_model_s @ both",
	"mf.load_s":                    "setup_s @ both (serving)",
	"recommend.service_p50_us":     "topn_p50_ms, topn_max_qps @ both; in-cache on netflix-synth, from L3 on ml20m-tcp",
	"recommend.service_p99_us":     "topn_p50_ms, topn_max_qps @ both",
	"recommend.queue_p99_us":       "topn_p50_ms, topn_max_qps @ both",
	"recommend.items_scored_per_s": "topn_p50_ms, topn_max_qps @ both",
	"recommend.batch_call_p50_ms":  "batch_users_per_s @ both",
	"recommend.reload_s":           "topn_p99_ms, setup_s @ both",
	"recommend.mark_seen_s":        "setup_s @ both",
	"loadgen.late_p99_ms":          "none: validity of the load generator @ both",
	"trace.overhead_share":         "none: validity of the trace (training, time to model) @ both",
	"trace.serve_overhead_share":   "none: validity of the trace (serving, top-N p50) @ both",
	"trace.unattributed_share":     "none: validity of the trace @ both",
	"error_rate":                   "failed / attempted operations @ both",
	"topn_p99_ms":                  "open-loop top-10 p99 (host stalls make it too noisy to bound) @ both",
}
