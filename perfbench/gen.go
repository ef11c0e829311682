package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hccmf/internal/dataset"
	"hccmf/internal/mf"
	"hccmf/internal/sparse"
)

// ratingsShape describes a synthetic ratings matrix: a planted rank-K
// model, Zipf-skewed item popularity and user activity, and quantised
// noisy ratings. It is the benchmark's own generator; the program's
// dataset.Generate is never used for the file-based workloads, so a change
// there cannot move their inputs.
type ratingsShape struct {
	M, N, K    int
	NNZ        int     // target rating count
	ItemTheta  float64 // Zipf exponent of item popularity
	UserTheta  float64 // Zipf exponent of user activity
	MinPerUser int
	Noise      float64
	Lo, Hi     float32
	Step       float32
}

// ml20mShape is MovieLens-20M halved along every axis (138494×131263 with
// 20,000,260 half-star ratings → 69247×65631 with ~10M), keeping the
// near-square aspect that pushes the planner to async streams.
var ml20mShape = ratingsShape{
	M: 69247, N: 65631, K: 32, NNZ: 10000130,
	ItemTheta: 0.9, UserTheta: 0.5, MinPerUser: 20,
	Noise: 0.5, Lo: 0.5, Hi: 5, Step: 0.5,
}

// splitmix is a small, stable, seeded generator (SplitMix64). Its stream
// is fixed by this file, so one seed gives byte-identical inputs on every
// Go release and every machine.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0,1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm returns a standard normal value (Box–Muller, one of the pair).
func (r *splitmix) norm() float64 {
	u := r.float()
	for u == 0 {
		u = r.float()
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// stream derives an independent generator for one (seed, purpose, index).
func stream(seed uint64, purpose, index uint64) *splitmix {
	r := newSplitmix(seed ^ purpose*0xd1b54a32d192ed03 ^ index*0x9e3779b97f4a7c15)
	r.next()
	return r
}

func permutation(r *splitmix, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipfWeights returns (r+1)^-theta for ranks r in [0,n).
func zipfWeights(n int, theta float64) []float64 {
	w := make([]float64, n)
	for r := range w {
		w[r] = math.Pow(float64(r+1), -theta)
	}
	return w
}

// plantModel draws the planted factors. Entries are base + dev·N(0,1) with
// base chosen so p·q centres on the middle of the rating scale.
func plantModel(sh ratingsShape, seed uint64) *mf.Factors {
	f := mf.NewFactors(sh.M, sh.N, sh.K)
	mid := float64(sh.Lo+sh.Hi) / 2
	base := math.Sqrt(mid / float64(sh.K))
	dev := math.Sqrt(float64(sh.Hi-sh.Lo) / 4 / float64(sh.K))
	fill := func(v []float32, r *splitmix) {
		for i := range v {
			v[i] = float32(base + dev*r.norm())
		}
	}
	fill(f.P, stream(seed, 1, 0))
	fill(f.Q, stream(seed, 2, 0))
	return f
}

// userDegrees assigns each user a rating count: MinPerUser plus a Zipf
// share of the rest, capped at a quarter of the items.
func userDegrees(sh ratingsShape, seed uint64) []int {
	perm := permutation(stream(seed, 3, 0), sh.M)
	w := zipfWeights(sh.M, sh.UserTheta)
	var sum float64
	for _, x := range w {
		sum += x
	}
	extra := float64(sh.NNZ - sh.M*sh.MinPerUser)
	deg := make([]int, sh.M)
	for r, u := range perm {
		d := sh.MinPerUser + int(extra*w[r]/sum)
		if d > sh.N/4 {
			d = sh.N / 4
		}
		deg[u] = d
	}
	return deg
}

// generateRatings draws every user's distinct items from the Zipf item
// popularity and rates them with the planted model plus Gaussian noise,
// rounded to the rating step. Users are generated in two halves in
// parallel from per-user streams, so the output does not depend on the
// thread count. Entries come out user-major, items in draw order.
func generateRatings(sh ratingsShape, model *mf.Factors, seed uint64) *sparse.COO {
	deg := userDegrees(sh, seed)
	itemPerm := permutation(stream(seed, 4, 0), sh.N)
	cdf := zipfWeights(sh.N, sh.ItemTheta)
	for i := 1; i < len(cdf); i++ {
		cdf[i] += cdf[i-1]
	}
	total := cdf[len(cdf)-1]
	for i := range cdf {
		cdf[i] /= total
	}

	const parts = 2
	outs := make([][]sparse.Rating, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		lo, hi := p*sh.M/parts, (p+1)*sh.M/parts
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			n := 0
			for u := lo; u < hi; u++ {
				n += deg[u]
			}
			out := make([]sparse.Rating, 0, n)
			stamp := make([]int32, sh.N)
			for i := range stamp {
				stamp[i] = -1
			}
			for u := lo; u < hi; u++ {
				r := stream(seed, 5, uint64(u))
				pu := model.PRow(int32(u))
				for got, tries := 0, 0; got < deg[u] && tries < 20*deg[u]; tries++ {
					rank := sort.SearchFloat64s(cdf, r.float())
					if rank >= sh.N {
						rank = sh.N - 1
					}
					item := itemPerm[rank]
					if stamp[item] == int32(u) {
						continue
					}
					stamp[item] = int32(u)
					got++
					var dot float64
					for k, q := range model.QRow(item) {
						dot += float64(pu[k]) * float64(q)
					}
					v := float32(math.Round((dot+sh.Noise*r.norm())/float64(sh.Step))) * sh.Step
					v = min(max(v, sh.Lo), sh.Hi)
					out = append(out, sparse.Rating{U: int32(u), I: item, V: v})
				}
			}
			outs[p] = out
		}(p, lo, hi)
	}
	wg.Wait()
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	m := sparse.NewCOO(sh.M, sh.N, n)
	for _, o := range outs {
		m.Entries = append(m.Entries, o...)
	}
	return m
}

// fnv1a fingerprints a ratings matrix: dims, then every entry's
// (u, i, bits(v)) in order, FNV-1a 64.
func fnv1a(m *sparse.COO) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(x >> s))
			h *= prime
		}
	}
	mix(uint32(m.Rows))
	mix(uint32(m.Cols))
	for _, e := range m.Entries {
		mix(uint32(e.U))
		mix(uint32(e.I))
		mix(math.Float32bits(e.V))
	}
	return h
}

// inputSet is one seed's prepared input files and what they must contain.
type inputSet struct {
	Dir  string `json:"-"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	NNZ  int    `json:"nnz"`
}

func (s inputSet) path(name string) string { return filepath.Join(s.Dir, name) }

// Input file names inside an input set directory: the same ratings as the
// binary file training ingests and as the text file the server loads for
// its seen set.
const (
	binRatingsFile  = "ratings.bin"
	textRatingsFile = "ratings.txt"
	manifestFile    = "manifest.json"
)

// keptInputSets bounds the input cache on disk.
const keptInputSets = 2

// prepareInputs returns ml20m-tcp's input set for seed, generating it
// outside any timed region on first use. A set is built in a temporary
// directory and renamed into place, so an interrupted build is never
// mistaken for a finished one.
func prepareInputs(root string, seed uint64) (inputSet, error) {
	base := filepath.Join(root, ".bench_build", "perfbench", "inputs")
	dir := filepath.Join(base, "ml20m-"+strconv.FormatUint(seed, 10))
	if set, err := readManifest(dir); err == nil {
		return set, nil
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return inputSet{}, err
	}
	pruneInputs(base)
	tmp, err := os.MkdirTemp(base, "building-")
	if err != nil {
		return inputSet{}, err
	}
	defer os.RemoveAll(tmp)

	sh := ml20mShape
	ratings := generateRatings(sh, plantModel(sh, seed), seed)
	set := inputSet{Rows: ratings.Rows, Cols: ratings.Cols, NNZ: ratings.NNZ()}
	err = writeFile(filepath.Join(tmp, binRatingsFile), func(w *bufio.Writer) error {
		return dataset.WriteBinary(w, ratings)
	})
	if err == nil {
		err = writeFile(filepath.Join(tmp, textRatingsFile), func(w *bufio.Writer) error {
			return dataset.WriteText(w, ratings)
		})
	}
	if err != nil {
		return inputSet{}, err
	}
	doc, err := json.Marshal(set)
	if err != nil {
		return inputSet{}, err
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestFile), doc, 0o644); err != nil {
		return inputSet{}, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return inputSet{}, err
	}
	set.Dir = dir
	return set, nil
}

func readManifest(dir string) (inputSet, error) {
	doc, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return inputSet{}, err
	}
	var set inputSet
	if err := json.Unmarshal(doc, &set); err != nil {
		return inputSet{}, err
	}
	set.Dir = dir
	return set, nil
}

// pruneInputs keeps the newest keptInputSets-1 finished sets (a new one
// is about to be added) and drops stale build dirs.
func pruneInputs(base string) {
	entries, err := os.ReadDir(base)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  int64
	}
	var sets []aged
	for _, e := range entries {
		name := e.Name()
		p := filepath.Join(base, name)
		info, err := e.Info()
		if err != nil {
			continue
		}
		if strings.HasPrefix(name, "building-") {
			_ = os.RemoveAll(p)
		} else {
			sets = append(sets, aged{p, info.ModTime().UnixNano()})
		}
	}
	sort.Slice(sets, func(a, b int) bool { return sets[a].mod > sets[b].mod })
	for i := keptInputSets - 1; i < len(sets); i++ {
		_ = os.RemoveAll(sets[i].path)
	}
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
