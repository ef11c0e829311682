package mf

import (
	"testing"

	"hccmf/internal/sparse"
)

// tileOrder invariants: the reorder is a permutation, tile indices are
// non-decreasing across the slice, and entries within one tile keep the
// (row, col) order the default traversal has.
func TestTileOrderInvariants(t *testing.T) {
	rng := sparse.NewRand(31)
	const colLo, cols, k = 100, 400, 32
	entries := make([]sparse.Rating, 3000)
	for i := range entries {
		entries[i] = sparse.Rating{
			U: int32(rng.Intn(200)),
			I: int32(colLo + rng.Intn(cols)),
			V: rng.Float32(),
		}
	}
	// Budget sized to force several tiles: 40 columns per tile → 10 tiles.
	budget := 40 * 4 * k
	want := append([]sparse.Rating(nil), entries...)
	ntiles := tileOrder(entries, colLo, k, budget)
	if wantTiles := (cols + 39) / 40; ntiles != wantTiles {
		t.Fatalf("ntiles = %d, want %d", ntiles, wantTiles)
	}

	// Permutation: the reorder must preserve the entry multiset exactly.
	tc := tileCols(k, budget)
	key := func(e sparse.Rating) (int, int32, int32) {
		return (int(e.I) - colLo) / tc, e.U, e.I
	}
	seen := make(map[sparse.Rating]int, len(want))
	for _, e := range want {
		seen[e]++
	}
	for _, e := range entries {
		seen[e]--
		if seen[e] < 0 {
			t.Fatalf("entry %+v appears more often after tileOrder", e)
		}
	}
	for e, n := range seen {
		if n != 0 {
			t.Fatalf("entry %+v lost by tileOrder", e)
		}
	}

	// Tile-monotone and (row, col)-sorted within each tile, checked directly.
	for i := 1; i < len(entries); i++ {
		tp, up, ip := key(entries[i-1])
		tn, un, in := key(entries[i])
		if tn < tp {
			t.Fatalf("tile order broken at %d: %d after %d", i, tn, tp)
		}
		if tn == tp && (un < up || (un == up && in < ip)) {
			t.Fatalf("(row,col) order broken inside tile %d at %d", tn, i)
		}
	}
}

func TestTileOrderSingleTileKeepsRowSort(t *testing.T) {
	rng := sparse.NewRand(32)
	entries := make([]sparse.Rating, 300)
	for i := range entries {
		entries[i] = sparse.Rating{U: int32(rng.Intn(50)), I: int32(rng.Intn(50)), V: 1}
	}
	want := append([]sparse.Rating(nil), entries...)
	sparse.SortRatings(want, 50, 50)
	if n := tileOrder(entries, 0, 8, tileBytesDefault); n != 1 {
		t.Fatalf("ntiles = %d, want 1 (50 cols fit one default tile)", n)
	}
	for i := range entries {
		if entries[i] != want[i] {
			t.Fatalf("single-tile order diverged from row sort at %d", i)
		}
	}
}

func TestTileColsBounds(t *testing.T) {
	if tc := tileCols(32, tileBytesDefault); tc != tileBytesDefault/(4*32) {
		t.Fatalf("tileCols(32, default) = %d", tc)
	}
	if tc := tileCols(1<<20, 1); tc != 1 {
		t.Fatalf("tileCols tiny budget = %d, want 1", tc)
	}
	if tc := tileCols(0, 1024); tc != 1 {
		t.Fatalf("tileCols k=0 = %d, want 1", tc)
	}
}

// Fast-math engine convergence: the reordered kernels and traversals must
// still descend. These mirror the default-mode convergence tests.

func TestFPSGDFastMathConverges(t *testing.T) {
	m := trainSet(t, 80, 60, 4000, 14)
	rmse := runEngine(t, &FPSGD{Threads: 4, FastMath: true}, m, 25)
	if rmse > 0.35 {
		t.Fatalf("fast-math fpsgd RMSE after 25 epochs = %v", rmse)
	}
}

func TestBatchedFastMathConverges(t *testing.T) {
	skipLockFreeUnderRace(t)
	m := trainSet(t, 80, 60, 4000, 15)
	rmse := runEngine(t, &Batched{Groups: 8, BatchSize: 512, FastMath: true}, m, 25)
	if rmse > 0.35 {
		t.Fatalf("fast-math batched RMSE after 25 epochs = %v", rmse)
	}
}

// The grid cache must be invalidated when the engine flips traversal mode
// or the factor dimension changes under tiling.
func TestFPSGDGridCacheTiledKey(t *testing.T) {
	m := trainSet(t, 50, 50, 1000, 18)
	e := &FPSGD{Threads: 2}
	f := NewFactorsInit(50, 50, 4, m.MeanRating(), sparse.NewRand(2))
	h := HyperParams{Gamma: 0.01}
	e.Epoch(f, m, h)
	g1 := e.grid
	e.FastMath = true
	e.Epoch(f, m, h)
	if e.grid == g1 {
		t.Fatal("grid not rebuilt after switching to tiled traversal")
	}
	g2 := e.grid
	f8 := NewFactorsInit(50, 50, 8, m.MeanRating(), sparse.NewRand(2))
	e.Epoch(f8, m, h)
	if e.grid == g2 {
		t.Fatal("tiled grid not rebuilt for a new factor dimension")
	}
}
