//go:build !amd64 || noasm

package mf

// haveVec: no hand-written vector kernel on this architecture (or the
// assembly path was disabled with -tags noasm); the kernel table falls
// back to the unrolled Go kernels for k ∈ {32, 64, 128} and the fused
// 8-wide kernel otherwise. CI exercises this file on amd64 via the noasm
// matrix leg, so the portable path cannot rot between architecture ports.
const haveVec = false

// vecImpl names the vector backend in KernelName output.
const vecImpl = "portable"

// updateOneVec falls back to the portable fused kernel. Same bit-exact
// results as the amd64 SSE kernel (both match referenceUpdateOne).
//
// lint:hotpath
func updateOneVec(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneGeneric(p, q, r, h)
}

// updateOneFastVec falls back to the portable fast-math kernel, which
// mirrors the amd64 accumulator order exactly — fast-math goldens hold on
// every architecture.
//
// lint:hotpath
func updateOneFastVec(p, q []float32, r float32, h HyperParams) float32 {
	return updateOneFastGeneric(p, q, r, h)
}

// scoreRowsVec falls back to one Dot per row: Dot's own summation order,
// so ScoreRows stays bit-identical to Dot on every architecture.
//
// lint:hotpath
func scoreRowsVec(p, q, out []float32) {
	k := len(p)
	for j := range out {
		out[j] = Dot(p, q[j*k:(j+1)*k])
	}
}
