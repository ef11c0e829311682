package recommend

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"hccmf/internal/sparse"
)

// Service is the request-path serving engine behind hccmf-serve: a
// read-mostly top-N scorer designed for heavy concurrent traffic.
//
//   - Sharding: the item axis is cut into contiguous ranges, the same
//     single-backing-array view pattern as sparse.RowShards — the model's
//     Q rows already live in one flat array, and each shard is just an
//     index range [lo,hi) over it, so a single-user query fans its scan
//     across shards with no per-shard copies.
//   - Persistent worker pool: a fixed set of goroutines drains a task
//     channel (the internal/mf sweep-pool pattern). Tasks are sent by
//     value; nothing on the request path spawns goroutines. There is one
//     task type: a group of users over an item range, scanned tile by
//     tile with the SSE multi-row kernel. A single-user query is a group
//     of one per shard; a batch is one contiguous group of users per
//     worker over the whole catalog (DESIGN.md §13).
//   - Bounded heaps in caller buffers: shard scans and merges build their
//     heaps inside preallocated buffers, so the steady-state scoring path
//     is 0 allocs/op (enforced by alloc_test.go).
//   - Hot reload: the model lives behind an atomic pointer, boxed with its
//     generation. Reload validates dimensions and swaps the pointer; every
//     request loads the pointer exactly once, so a request never mixes two
//     models, and TopNIntoGen/TopNBatchGen report the generation of the
//     model that actually scored the request.
//
// MarkSeen is not safe to call concurrently with queries: load the seen
// set before serving traffic (the daemon does this at startup).
type Service struct {
	users, items int
	maxN         int
	nshards      int
	bounds       []int32 // len nshards+1; shard s scans [bounds[s], bounds[s+1])
	workers      int

	model atomic.Pointer[modelBox]
	seen  seenSet

	tasks   chan serveTask
	queries sync.Pool // *query
}

// modelBox is one model generation: the model as the scan sees it and
// the generation number, swapped together so a query can never pair one
// model's scores with another's generation.
type modelBox struct {
	scanModel
	gen int64
}

// ServiceConfig sizes a Service. Zero values pick defaults.
type ServiceConfig struct {
	// Workers is the size of the persistent scoring pool (default
	// GOMAXPROCS).
	Workers int
	// Shards is the number of item ranges a single-user query fans out
	// over (default Workers).
	Shards int
	// MaxN caps the per-request n; it sizes the preallocated per-shard
	// heaps (default 100).
	MaxN int
}

// serveTask is the pool's one unit of scoring work: scan items [lo,hi)
// for every user of users, user j into the n-bounded heap dsts[j], which
// must start empty. Sent by value; the worker builds the heaps in place in
// dsts and signals wg.
type serveTask struct {
	model  *scanModel
	seen   [][]int32 // per-user sorted seen lists
	users  []int32
	dsts   [][]Item
	lo, hi int32
	n      int
	wg     *sync.WaitGroup
}

// serveWorker drains tasks until the channel is closed, scanning with its
// own score scratch. Top-level function (not a closure) so pool
// construction allocates only the goroutines and their scratch.
//
// lint:hotpath
func serveWorker(tasks <-chan serveTask, scores []float32) {
	for t := range tasks {
		t.run(scores[:t.model.tile])
		t.wg.Done()
	}
}

// run walks [lo,hi) one Q tile at a time and scores each tile for every
// user before moving to the next, so a tile's Q rows come from memory
// once per task and from cache for the rest of the users.
//
// lint:hotpath
func (t *serveTask) run(scores []float32) {
	tile := int32(len(scores))
	for lo := t.lo; lo < t.hi; {
		hi := t.hi
		if hi-lo > tile {
			hi = lo + tile
		}
		for j, u := range t.users {
			t.dsts[j] = scanRange(t.model, u, t.seen[u], lo, hi, t.n, t.dsts[j], scores)
		}
		lo = hi
	}
}

// query is the pooled per-request state: one bounded heap per shard, and
// the one-user group a single-user query's shard tasks share. The heaps
// are preallocated at MaxN capacity so a request allocates nothing.
type query struct {
	wg    sync.WaitGroup
	user  [1]int32
	parts [][]Item
}

// NewService builds the serving engine for a model covering users×items.
func NewService(model Scorer, users, items int, cfg ServiceConfig) (*Service, error) {
	if model == nil {
		return nil, fmt.Errorf("recommend: nil model")
	}
	if users <= 0 || items <= 0 {
		return nil, fmt.Errorf("recommend: dims %dx%d", users, items)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = workers
	}
	if nshards > items {
		nshards = items
	}
	maxN := cfg.MaxN
	if maxN <= 0 {
		maxN = 100
	}
	s := &Service{
		users: users, items: items,
		maxN: maxN, nshards: nshards, workers: workers,
		seen:  newSeenSet(users),
		tasks: make(chan serveTask, workers),
	}
	// Equal-width contiguous item ranges; the last shard absorbs the
	// remainder. bounds is the shard analogue of a CSR row prefix.
	s.bounds = make([]int32, nshards+1)
	for i := 0; i <= nshards; i++ {
		s.bounds[i] = int32(i * items / nshards)
	}
	s.model.Store(&modelBox{scanModel: newScanModel(model), gen: 1})
	s.queries.New = func() any {
		q := &query{parts: make([][]Item, nshards)}
		for i := range q.parts {
			q.parts[i] = make([]Item, 0, maxN)
		}
		return q
	}
	for i := 0; i < workers; i++ {
		go serveWorker(s.tasks, make([]float32, maxTile))
	}
	return s, nil
}

// Close stops the worker pool. Queries must not be in flight or issued
// after Close.
func (s *Service) Close() { close(s.tasks) }

// Users reports the model's user count.
func (s *Service) Users() int { return s.users }

// Items reports the model's item count.
func (s *Service) Items() int { return s.items }

// MaxN reports the per-request n cap.
func (s *Service) MaxN() int { return s.maxN }

// Generation reports the current model generation: 1 for the model the
// service was built with, incremented by every Reload. A query's own
// generation is what TopNIntoGen/TopNBatchGen return: a Reload may land
// between a Generation call and a query.
func (s *Service) Generation() int64 { return s.model.Load().gen }

// MarkSeen loads already-rated interactions for seen-item exclusion. Not
// concurrency-safe with queries; call before serving.
func (s *Service) MarkSeen(train *sparse.COO) error {
	return s.seen.mark(train, s.users, s.items)
}

// Reload atomically swaps in a new model of identical dimensions.
// In-flight requests keep scoring against the model they started with;
// requests beginning after Reload returns see the new one.
func (s *Service) Reload(model Scorer, users, items int) error {
	if model == nil {
		return fmt.Errorf("recommend: reload with nil model")
	}
	if users != s.users || items != s.items {
		return fmt.Errorf("recommend: reload dims %dx%d do not match service %dx%d",
			users, items, s.users, s.items)
	}
	next := newScanModel(model)
	for {
		old := s.model.Load()
		if s.model.CompareAndSwap(old, &modelBox{scanModel: next, gen: old.gen + 1}) {
			return nil
		}
	}
}

// TopNInto answers a single-user query, fanning the item scan across the
// service's shards on the persistent pool and merging the shard heaps
// best-first into buf. With cap(buf) >= n the call allocates nothing in
// steady state. The returned slice aliases buf.
//
// lint:hotpath
func (s *Service) TopNInto(u int32, n int, buf []Item) ([]Item, error) {
	out, _, err := s.TopNIntoGen(u, n, buf)
	return out, err
}

// TopNIntoGen is TopNInto that also reports the generation of the model
// that scored the query.
//
// lint:hotpath
func (s *Service) TopNIntoGen(u int32, n int, buf []Item) ([]Item, int64, error) {
	if err := s.checkQuery(u, n); err != nil {
		return nil, 0, err
	}
	box := s.model.Load()
	q := s.queries.Get().(*query)
	q.user[0] = u
	q.wg.Add(s.nshards)
	for i := 0; i < s.nshards; i++ {
		q.parts[i] = q.parts[i][:0]
		s.tasks <- serveTask{
			model: &box.scanModel, seen: s.seen.rows,
			users: q.user[:], dsts: q.parts[i : i+1],
			lo: s.bounds[i], hi: s.bounds[i+1],
			n: n, wg: &q.wg,
		}
	}
	q.wg.Wait()
	out := buf[:0]
	for _, part := range q.parts {
		for _, it := range part {
			out = pushBounded(out, n, it)
		}
	}
	s.queries.Put(q)
	sortDesc(out)
	return out, box.gen, nil
}

// TopNBatch answers a multi-user query as one blocked P_batch·Qᵀ pass:
// the users are cut into one contiguous group per pool worker, and each
// worker walks Q tile by tile, scoring every tile for each user of its
// group into that user's row buffer bufs[i] (heap built in place, then
// sorted best-first). With cap(bufs[i]) >= n the call allocates nothing in
// steady state. Row i of bufs is re-sliced to user i's results. Validation
// happens before any task is dispatched, and errors name the offending
// user.
//
// lint:hotpath
func (s *Service) TopNBatch(users []int32, n int, bufs [][]Item) error {
	_, err := s.TopNBatchGen(users, n, bufs)
	return err
}

// TopNBatchGen is TopNBatch that also reports the generation of the model
// that scored the batch.
//
// lint:hotpath
func (s *Service) TopNBatchGen(users []int32, n int, bufs [][]Item) (int64, error) {
	if len(bufs) < len(users) {
		return 0, fmt.Errorf("recommend: batch of %d users with %d result buffers", len(users), len(bufs)) // lint:allow hotalloc validation error path, never taken in steady state
	}
	for i, u := range users {
		if err := s.checkQuery(u, n); err != nil {
			return 0, fmt.Errorf("recommend: batch user %d (index %d): %w", u, i, err) // lint:allow hotalloc validation error path, never taken in steady state
		}
	}
	box := s.model.Load()
	groups := s.workers
	if groups > len(users) {
		groups = len(users)
	}
	q := s.queries.Get().(*query)
	q.wg.Add(groups)
	for g := 0; g < groups; g++ {
		a, b := g*len(users)/groups, (g+1)*len(users)/groups
		for i := a; i < b; i++ {
			bufs[i] = bufs[i][:0]
		}
		s.tasks <- serveTask{
			model: &box.scanModel, seen: s.seen.rows,
			users: users[a:b], dsts: bufs[a:b],
			lo: 0, hi: int32(s.items),
			n: n, wg: &q.wg,
		}
	}
	q.wg.Wait()
	s.queries.Put(q)
	for i := range users {
		sortDesc(bufs[i])
	}
	return box.gen, nil
}

func (s *Service) checkQuery(u int32, n int) error {
	if u < 0 || int(u) >= s.users {
		return fmt.Errorf("recommend: user %d out of range [0,%d)", u, s.users)
	}
	if n <= 0 {
		return fmt.Errorf("recommend: n = %d", n)
	}
	if n > s.maxN {
		return fmt.Errorf("recommend: n = %d exceeds the service cap %d", n, s.maxN)
	}
	return nil
}
