package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"hccmf/internal/comm"
	commnet "hccmf/internal/comm/net"
)

// The benchmark's only seam inside core.Run is a transport kind of its
// own. Its constructor builds the real transport of the base kind through
// the registry and wraps it in a recording decorator that forwards Unwrap
// and Remote, so comm.AsRemote and comm.CloseTransport still see the base.
const kindPrefix = "perfbench+"

func init() {
	for _, base := range []string{comm.KindShared, commnet.Kind} {
		comm.Register(kindPrefix+base, func(spec comm.Spec) (comm.Transport, error) {
			rec := activeRecorder.Load()
			if rec == nil {
				return nil, fmt.Errorf("perfbench: transport %q built with no job recorder", kindPrefix+base)
			}
			spec.Kind = base
			inner, err := comm.New(spec)
			if err != nil {
				return nil, err
			}
			return &recordingTransport{inner: inner, rec: rec}, nil
		})
	}
}

// activeRecorder is the recorder of the job currently running in this
// process (one job at a time).
var activeRecorder atomic.Pointer[recorder]

// xferSpan is one recorded transfer.
type xferSpan struct {
	op         string // "pull", "push" or "sync"
	start, end time.Duration
	matrix     comm.Matrix
	owner      int // shard owner (comm.GlobalOwner for pulls and syncs)
	lo, hi     int
	base       uintptr // address of element 0 of the caller's local matrix
	stats      comm.TransferStats
	failed     bool
}

// recorder collects one job's transfers and epoch boundaries. Untraced it
// keeps only counters and the first Pull time; traced it keeps every
// transfer in memory until the job ends.
type recorder struct {
	clock  func() time.Duration
	traced bool

	firstPull atomic.Int64 // ns on clock, -1 until the first Pull starts
	calls     atomic.Int64
	failed    atomic.Int64

	mu     sync.Mutex
	spans  []xferSpan
	epochs []time.Duration // OnEpoch times
	rmse   []float64
}

func newRecorder(clock func() time.Duration, traced bool) *recorder {
	r := &recorder{clock: clock, traced: traced}
	r.firstPull.Store(-1)
	if traced {
		r.spans = make([]xferSpan, 0, 4096)
	}
	return r
}

func (r *recorder) onEpoch(epoch, total int, rmse, simSeconds float64) {
	t := r.clock()
	r.mu.Lock()
	r.epochs = append(r.epochs, t)
	r.rmse = append(r.rmse, rmse)
	r.mu.Unlock()
}

func (r *recorder) record(op string, local []float32, x comm.Xfer, run func() (comm.TransferStats, error)) (comm.TransferStats, error) {
	start := r.clock()
	if op == "pull" {
		r.firstPull.CompareAndSwap(-1, int64(start))
	}
	st, err := run()
	r.calls.Add(1)
	if err != nil {
		r.failed.Add(1)
	}
	if r.traced {
		end := r.clock()
		var base uintptr
		if len(local) > 0 {
			base = uintptr(unsafe.Pointer(unsafe.SliceData(local))) - uintptr(x.Shard.Lo)*4
		}
		r.mu.Lock()
		r.spans = append(r.spans, xferSpan{
			op: op, start: start, end: end,
			matrix: x.Shard.Matrix, owner: x.Shard.Owner, lo: x.Shard.Lo, hi: x.Shard.Hi,
			base: base, stats: st, failed: err != nil,
		})
		r.mu.Unlock()
	}
	return st, err
}

// recordingTransport decorates the real transport of a job.
type recordingTransport struct {
	inner comm.Transport
	rec   *recorder
}

func (t *recordingTransport) Name() string           { return t.inner.Name() }
func (t *recordingTransport) CopiesPerTransfer() int { return t.inner.CopiesPerTransfer() }
func (t *recordingTransport) Unwrap() comm.Transport { return t.inner }
func (t *recordingTransport) Pull(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	return t.rec.record("pull", dst, x, func() (comm.TransferStats, error) { return t.inner.Pull(dst, src, x) })
}

func (t *recordingTransport) Push(dst, src []float32, x comm.Xfer) (comm.TransferStats, error) {
	return t.rec.record("push", src, x, func() (comm.TransferStats, error) { return t.inner.Push(dst, src, x) })
}

// RemoteAddr implements comm.Remote by forwarding.
func (t *recordingTransport) RemoteAddr() string {
	if r, ok := t.inner.(comm.Remote); ok {
		return r.RemoteAddr()
	}
	return ""
}

// SyncShard implements comm.Remote; publishes are recorded as op "sync".
func (t *recordingTransport) SyncShard(src []float32, x comm.Xfer) (comm.TransferStats, error) {
	r, ok := t.inner.(comm.Remote)
	if !ok {
		return comm.TransferStats{}, fmt.Errorf("perfbench: %s is not a remote transport", t.inner.Name())
	}
	return t.rec.record("sync", nil, x, func() (comm.TransferStats, error) { return r.SyncShard(src, x) })
}
