package mf

import (
	"fmt"
	"math"
	"testing"

	"hccmf/internal/sparse"
)

// sameScore is the kernel-equivalence relation: equal math.Float32bits,
// so signed zeros, subnormals and infinities must match exactly. A NaN
// must meet a NaN, but its sign and payload are not part of Dot's
// contract: when two NaNs meet, SSE keeps the destination operand's, and
// which operand is the destination is the compiler's register choice for
// Dot itself, which differs between normal, -race and -fuzz builds of the
// same source.
func sameScore(a, b float32) bool {
	if math.IsNaN(float64(a)) {
		return math.IsNaN(float64(b))
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// assertScoresMatchDot checks ScoreRows(p, q, out) against one Dot per
// row under sameScore.
func assertScoresMatchDot(t *testing.T, p, q []float32, n int, label string) {
	t.Helper()
	k := len(p)
	out := make([]float32, n+1)
	const sentinel = 0x5eed5eed
	out[n] = math.Float32frombits(sentinel)
	ScoreRows(p, q, out[:n])
	for j := 0; j < n; j++ {
		want := Dot(p, q[j*k:(j+1)*k])
		if !sameScore(out[j], want) {
			t.Fatalf("%s k=%d n=%d row %d: ScoreRows %v (%#08x), Dot %v (%#08x)",
				label, k, n, j, out[j], math.Float32bits(out[j]), want, math.Float32bits(want))
		}
	}
	if math.Float32bits(out[n]) != sentinel {
		t.Fatalf("%s k=%d n=%d: wrote past out[n-1]", label, k, n)
	}
}

// TestScoreRowsMatchesDot sweeps every k%4 tail (k = 1…130) and every
// four-row remainder (n = 0…67) with Q starting at each element offset
// mod 4, so the packed loads run unaligned too.
func TestScoreRowsMatchesDot(t *testing.T) {
	rng := sparse.NewRand(41)
	for k := 1; k <= 130; k++ {
		p := make([]float32, k)
		for i := range p {
			p[i] = rng.Float32()*2 - 1
		}
		const maxN = 67
		back := make([]float32, maxN*k+3)
		for i := range back {
			back[i] = rng.Float32()*2 - 1
		}
		for n := 0; n <= maxN; n++ {
			off := n % 4
			assertScoresMatchDot(t, p, back[off:off+n*k], n, "random")
		}
	}
}

// TestScoreRowsLargeN covers a Q far larger than one tile and the L1.
func TestScoreRowsLargeN(t *testing.T) {
	rng := sparse.NewRand(42)
	for _, k := range []int{32, 37} {
		const n = 20011
		p := make([]float32, k)
		q := make([]float32, n*k+1)
		for i := range p {
			p[i] = float32(rng.NormFloat64())
		}
		for i := range q {
			q[i] = float32(rng.NormFloat64())
		}
		assertScoresMatchDot(t, p, q[1:], n, "large")
	}
}

// specials are the IEEE edge values the kernel must treat exactly like
// Dot: signed zeros, subnormals, infinities, the largest finite values
// (whose products overflow) and NaNs of both signs and two payloads.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807fffff),
	math.Float32frombits(0x00400000),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345),
	1, -1, 0.5, 3,
}

// TestScoreRowsSpecialValues draws every element from specials, so
// Inf·0, Inf−Inf, overflow, subnormal products and NaNs of different
// payloads meet in every lane, tail and fold position.
func TestScoreRowsSpecialValues(t *testing.T) {
	rng := sparse.NewRand(43)
	pick := func() float32 { return specials[rng.Intn(len(specials))] }
	for k := 1; k <= 19; k++ {
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(14)
			p := make([]float32, k)
			q := make([]float32, n*k+1)
			for i := range p {
				p[i] = pick()
			}
			for i := range q {
				q[i] = pick()
			}
			assertScoresMatchDot(t, p, q[1:], n, "special")
		}
	}
}

// TestScoreItemsMatchesPredict pins both factor models' ScoreItems to
// their Predict over every (user, run of items) split of a small model.
func TestScoreItemsMatchesPredict(t *testing.T) {
	const m, n, k = 5, 23, 7
	rng := sparse.NewRand(44)
	plain := NewFactorsInit(m, n, k, 3.5, rng)
	biased := NewBiasedFactorsInit(m, n, k, 3.5, rng)
	for i := range biased.BU {
		biased.BU[i] = rng.Float32() - 0.5
	}
	for i := range biased.BI {
		biased.BI[i] = rng.Float32() - 0.5
	}
	models := []struct {
		name string
		s    interface {
			Predict(u, i int32) float32
			ScoreItems(u, lo int32, out []float32)
		}
	}{{"Factors", plain}, {"BiasedFactors", biased}}
	for _, md := range models {
		out := make([]float32, n)
		for u := int32(0); u < m; u++ {
			for lo := int32(0); lo < n; lo++ {
				for hi := lo; hi <= n; hi++ {
					md.s.ScoreItems(u, lo, out[:hi-lo])
					for i := lo; i < hi; i++ {
						if got, want := out[i-lo], md.s.Predict(u, i); !sameScore(got, want) {
							t.Fatalf("%s u=%d items [%d,%d) item %d: ScoreItems %v, Predict %v", md.name, u, lo, hi, i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestScoreRowsZeroAllocs(t *testing.T) {
	p := make([]float32, 32)
	q := make([]float32, 32*64)
	out := make([]float32, 64)
	if avg := testing.AllocsPerRun(100, func() { ScoreRows(p, q, out) }); avg != 0 {
		t.Fatalf("ScoreRows: %v allocs/op, want 0", avg)
	}
}

// BenchmarkScoreRows compares the multi-row kernel with one Dot call per
// row at k=32, on a Q that fits in L2 (128 KiB) and one that does not
// (8 MiB).
func BenchmarkScoreRows(b *testing.B) {
	const k = 32
	rng := sparse.NewRand(45)
	p := make([]float32, k)
	for i := range p {
		p[i] = rng.Float32()
	}
	for _, n := range []int{1 << 10, 1 << 16} {
		q := make([]float32, n*k)
		for i := range q {
			q[i] = rng.Float32()
		}
		out := make([]float32, n)
		b.Run(fmt.Sprintf("ScoreRows/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ScoreRows(p, q, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
		})
		b.Run(fmt.Sprintf("Dot/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = Dot(p, q[j*k:(j+1)*k])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/item")
		})
	}
}
