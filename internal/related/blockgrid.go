package related

import "fmt"

// The block-grid traffic model is the Section 3.3 argument against
// extending FPSGD/cuMF_SGD's exclusive block scheduling across workers.
// That design — a global (p+1)×(p+1) block grid guarded by one
// lock-protected scheduler, handing out blocks that share no block-row or
// block-column with any in-flight block — is mf.FPSGD's, run across
// workers instead of threads. It converges and needs no server, but two
// properties justify the paper's choice of the row grid:
//
//   - every block acquisition must move that block's P rows *and* Q
//     columns, so distributed-memory traffic is BlockGridTraffic —
//     (g)·(m+n)·k parameters per epoch for a g×g grid versus the row
//     grid's ~2·p·n·k with Q-only (RowGridQOnlyTraffic);
//   - the scheduler's global lock is on the critical path of every block
//     hand-off, the "global locks" cost the paper's Section 5 points at.

// BlockGridTraffic reports the distributed-memory feature traffic of one
// block-grid epoch in parameters: each of the g² blocks moves its m/g P
// rows and n/g Q columns to whichever worker trains it, so the epoch total
// is g·(m+n)·k — growing with the grid side, which itself must grow with
// the worker count.
func BlockGridTraffic(m, n, k, gridSide int) (int64, error) {
	if m <= 0 || n <= 0 || k <= 0 || gridSide <= 0 {
		return 0, fmt.Errorf("related: invalid traffic args m=%d n=%d k=%d g=%d", m, n, k, gridSide)
	}
	return int64(gridSide) * int64(m+n) * int64(k), nil
}

// RowGridQOnlyTraffic is HCC-MF's counterpart under the row grid with
// Strategy 1: each of p workers pulls and pushes Q once per epoch —
// 2·p·n·k parameters, independent of m.
func RowGridQOnlyTraffic(n, k, workers int) (int64, error) {
	if n <= 0 || k <= 0 || workers <= 0 {
		return 0, fmt.Errorf("related: invalid traffic args n=%d k=%d p=%d", n, k, workers)
	}
	return 2 * int64(workers) * int64(n) * int64(k), nil
}
