//go:build amd64 && !noasm

package mf

// haveVec reports that updateOneVec is backed by a real vector kernel, so
// kernelIDFor prefers it over the unrolled Go kernels (it wins at every k
// on this sweep — the scalar kernels are compute-port-bound, not
// instruction-count-bound).
const haveVec = true

// vecImpl names the vector backend in KernelName output.
const vecImpl = "sse2"

// updateOneVec is the SSE kernel in update_amd64.s: one SGD step,
// bit-identical to updateOneGeneric/referenceUpdateOne for every k (see
// the .s file for the lane argument). Callers must guarantee
// len(q) >= len(p): the assembly reads p's length only. UpdateOne and
// trainEntriesKernel establish that with a q[:len(p)] reslice / a
// three-index slice.
//
//go:noescape
func updateOneVec(p, q []float32, r float32, h HyperParams) float32

// updateOneFastVec is the fast-math SSE kernel in update_amd64.s: the
// two-accumulator (8-wide) dot whose summation order matches
// updateOneFastGeneric exactly, not referenceUpdateOne. Same
// len(q) >= len(p) contract as updateOneVec.
//
//go:noescape
func updateOneFastVec(p, q []float32, r float32, h HyperParams) float32

// scoreRowsVec is the SSE multi-row scoring kernel in score_amd64.s:
// out[j] = p·q_j over len(out) consecutive rows of stride len(p), each
// bit-identical to Dot. Callers guarantee len(q) >= len(out)*len(p).
//
//go:noescape
func scoreRowsVec(p, q, out []float32)
