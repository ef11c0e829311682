package mf

// ScoreRows scores len(out) consecutive rows of q against p: with
// k = len(p), out[j] = p·q[j*k:(j+1)*k]. Every score is bit-identical to
// Dot(p, q[j*k:(j+1)*k]) for every k, so a caller may swap per-item Dot
// calls for one ScoreRows call without moving a single result bit. q must
// hold at least len(out)*len(p) elements.
//
// On amd64 it is the SSE kernel in score_amd64.s (four rows per step, one
// accumulator register per row; DESIGN.md §16); elsewhere, and under
// -tags noasm, it is a Dot loop.
//
// lint:hotpath
func ScoreRows(p, q, out []float32) {
	scoreRowsVec(p, q[:len(out)*len(p)], out)
}

// ScoreItems writes the scores of items lo, lo+1, …, lo+len(out)-1 for
// user u into out, each bit-identical to Predict(u, item).
//
// lint:hotpath
func (f *Factors) ScoreItems(u, lo int32, out []float32) {
	ScoreRows(f.PRow(u), f.Q[int(lo)*f.K:], out)
}

// ScoreItems writes the scores of items lo, lo+1, …, lo+len(out)-1 for
// user u into out. Each is ((Mu+BU[u])+BI[i]) + p·q, Predict's order, so
// the scores are bit-identical to Predict.
//
// lint:hotpath
func (b *BiasedFactors) ScoreItems(u, lo int32, out []float32) {
	b.Factors.ScoreItems(u, lo, out)
	base := b.Mu + b.BU[u]
	bi := b.BI[lo : int(lo)+len(out)]
	for j := range out {
		out[j] = base + bi[j] + out[j]
	}
}
