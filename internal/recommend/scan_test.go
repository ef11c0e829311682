package recommend

import (
	"sync"
	"testing"

	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// predictOnly hides a model's ScoreItems, so the scan takes its Predict
// fallback.
type predictOnly struct{ m Scorer }

func (p predictOnly) Predict(u, i int32) float32 { return p.m.Predict(u, i) }

// equivalenceScorers returns the three scorer shapes the scan serves: the
// plain and biased factor models (SSE fast path) and a Predict-only
// Scorer. k=5 gives a 819-item tile, so 1900 items span two full tiles
// and a partial one.
func equivalenceScorers(users, items, k int) map[string]Scorer {
	rng := sparse.NewRand(91)
	plain := mf.NewFactorsInit(users, items, k, 3.5, rng)
	biased := mf.NewBiasedFactorsInit(users, items, k, 3.5, rng)
	for i := range biased.BU {
		biased.BU[i] = rng.Float32() - 0.5
	}
	for i := range biased.BI {
		biased.BI[i] = rng.Float32() - 0.5
	}
	return map[string]Scorer{
		"Factors":       plain,
		"BiasedFactors": biased,
		"PredictOnly":   predictOnly{plain},
	}
}

// TestServiceScanMatchesOracle pins both query shapes of the tiled scan to
// the full-sort oracle: single queries at every shard count 1–5, and
// batches of 1, 3, 32 and 129 users (duplicates included) on every
// scorer.
func TestServiceScanMatchesOracle(t *testing.T) {
	const users, items, k, n = 40, 1900, 5, 12
	rng := sparse.NewRand(92)
	train := sparse.NewCOO(users, items, 0)
	for c := 0; c < users*60; c++ {
		train.Add(int32(rng.Intn(users)), int32(rng.Intn(items)), 1)
	}
	for name, model := range equivalenceScorers(users, items, k) {
		ref, err := New(model, users, items)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.MarkSeen(train); err != nil {
			t.Fatal(err)
		}
		oracle := make([][]Item, users)
		for u := range oracle {
			oracle[u] = naiveTopN(model, &ref.seen, int32(u), items, n)
			got, err := ref.TopN(int32(u), n)
			if err != nil {
				t.Fatal(err)
			}
			if !equalItems(got, oracle[u]) {
				t.Fatalf("%s user %d: Recommender.TopN %v != oracle %v", name, u, got, oracle[u])
			}
		}
		for shards := 1; shards <= 5; shards++ {
			svc, err := NewService(model, users, items, ServiceConfig{Workers: 3, Shards: shards, MaxN: n})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.MarkSeen(train); err != nil {
				t.Fatal(err)
			}
			buf := make([]Item, 0, n)
			for u := int32(0); u < users; u++ {
				got, err := svc.TopNInto(u, n, buf)
				if err != nil {
					t.Fatal(err)
				}
				if !equalItems(got, oracle[u]) {
					t.Fatalf("%s shards=%d user %d: TopNInto %v != oracle %v", name, shards, u, got, oracle[u])
				}
			}
			if shards != 3 {
				svc.Close()
				continue
			}
			for _, size := range []int{1, 3, 32, 129} {
				batch := make([]int32, size)
				bufs := make([][]Item, size)
				for i := range batch {
					batch[i] = int32(rng.Intn(users)) // 129 > users: duplicates guaranteed
					bufs[i] = make([]Item, 0, n)
				}
				if err := svc.TopNBatch(batch, n, bufs); err != nil {
					t.Fatal(err)
				}
				for i, u := range batch {
					if !equalItems(bufs[i], oracle[u]) {
						t.Fatalf("%s batch %d row %d user %d: %v != oracle %v", name, size, i, u, bufs[i], oracle[u])
					}
				}
			}
			svc.Close()
		}
	}
}

// TestServiceGenerationNamesScoringModel runs single and batch queries
// while one goroutine keeps reloading, and requires every response to be
// exactly the ranking of the model whose generation it reports.
// Generation g serves models[(g-1)%len(models)], and neighbouring models
// differ in every score. Run it under -race.
func TestServiceGenerationNamesScoringModel(t *testing.T) {
	const users, items, k, n, reloads = 12, 300, 4, 5, 4000
	base := mf.NewFactorsInit(users, items, k, 3.5, sparse.NewRand(93))
	models := make([]*mf.Factors, 7)
	want := make([][][]Item, len(models)) // [model][user]
	for g := range models {
		m := base.Clone()
		for i := range m.P {
			m.P[i] *= 1 + float32(g)/8
		}
		models[g] = m
		ref, err := New(m, users, items)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = make([][]Item, users)
		for u := range want[g] {
			if want[g][u], err = ref.TopN(int32(u), n); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc, err := NewService(models[0], users, items, ServiceConfig{Workers: 3, Shards: 2, MaxN: n})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	check := func(u int32, gen int64, got []Item) bool {
		if gen < 1 || gen > reloads+1 {
			t.Errorf("user %d: generation %d out of range", u, gen)
			return false
		}
		if m := (gen - 1) % int64(len(models)); !equalItems(got, want[m][u]) {
			t.Errorf("user %d generation %d: %v, model of that generation ranks %v", u, gen, got, want[m][u])
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]Item, 0, n)
			batch := []int32{0, 0, 0}
			bufs := [][]Item{make([]Item, 0, n), make([]Item, 0, n), make([]Item, 0, n)}
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				u := int32((g*5 + iter) % users)
				got, gen, err := svc.TopNIntoGen(u, n, buf)
				if err != nil {
					t.Error(err)
					return
				}
				if !check(u, gen, got) {
					return
				}
				batch[0], batch[1], batch[2] = u, (u+1)%users, u
				gen, err = svc.TopNBatchGen(batch, n, bufs)
				if err != nil {
					t.Error(err)
					return
				}
				for i, bu := range batch {
					if !check(bu, gen, bufs[i]) {
						return
					}
				}
			}
		}(g)
	}
	for r := 1; r <= reloads; r++ {
		if err := svc.Reload(models[r%len(models)], users, items); err != nil {
			t.Error(err)
			break
		}
		if g := svc.Generation(); g != int64(r+1) {
			t.Errorf("generation %d after reload %d", g, r)
			break
		}
	}
	close(stop)
	wg.Wait()
}
