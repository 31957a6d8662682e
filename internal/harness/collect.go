package harness

import (
	"sync"

	"mptcpsim/internal/runner"
)

// This file is the bridge between the experiment registry and the parallel
// runner. Every experiment is structured as collect → render: collect fans
// independent (sweep point × seed) simulation jobs out on the worker pool
// and merges the typed per-job results in canonical (point, seed) order;
// render then formats the table from the collected values alone. Because
// job seeds derive from Config.BaseSeed and the job's sweep position, and
// merging walks results in index order, the rendered bytes are identical
// for any Config.Workers setting.

// sweep runs fn for every (point, seed) pair on the worker pool and
// returns, for each point, the per-seed results in seed order. The seed
// passed to fn is cfg.BaseSeed + s for repetition s, exactly the chain the
// sequential harness used.
//
// Cancellation (cfg.context()) stops unstarted jobs inside runner.Map;
// the returned slices then hold zero values at the skipped positions.
// Collect functions keep merging those zeros — cheap, pure arithmetic —
// and CollectResult discards the bogus result when it re-checks the
// context, so the error path stays out of every experiment's merge logic.
// A job panic follows the same shape: runner.Map recovers it, the sweep
// records the typed error on the configuration's failure slot, and
// CollectResult surfaces it after Collect merges the zeros.
func sweep[P, T any](cfg Config, points []P, fn func(p P, seed int64) T) [][]T {
	seeds := cfg.seeds()
	flat, _ := mapJobs(cfg, len(points)*seeds, func(i int) T {
		return fn(points[i/seeds], cfg.BaseSeed+int64(i%seeds))
	})
	return bySeed(flat, len(points), seeds)
}

// perPoint runs fn once per point on the worker pool (for studies that use
// a single repetition at cfg.BaseSeed, such as the ablations) and returns
// the results in point order. Cancellation and panics behave as in sweep.
func perPoint[P, T any](cfg Config, points []P, fn func(p P) T) []T {
	out, _ := mapJobs(cfg, len(points), func(i int) T { return fn(points[i]) })
	return out
}

// mapJobs runs n simulation jobs on the call's pool, counting them on the
// shared job counter and recording a failure on the configuration's slot.
// The error is returned too, for callers that must hand it on.
func mapJobs[T any](cfg Config, n int, fn func(i int) T) ([]T, error) {
	cfg.noteJobs(n)
	out, err := runner.Map(cfg.context(), cfg.workerPool(), n, func(i int) T {
		defer cfg.jobDone()
		return fn(i)
	})
	cfg.noteFailure(err)
	return out, err
}

// seeds is the number of repetitions per sweep point (at least one).
func (cfg Config) seeds() int {
	if cfg.Seeds < 1 {
		return 1
	}
	return cfg.Seeds
}

// bySeed reshapes a flat (point × seed) result slice into per-point rows.
func bySeed[T any](flat []T, points, seeds int) [][]T {
	out := make([][]T, points)
	for i := range out {
		out[i] = flat[i*seeds : (i+1)*seeds]
	}
	return out
}

// runFamily is a pure simulation run that several experiments plot, named
// by the package variable that holds it and keyed by its pointer:
// run's value is a function of the call's Config, the sweep point and the
// seed alone. Within one RunAll every distinct (family, point, seed)
// simulates once and every experiment that plots it reads the same value
// (see runTable), so a family's values are shared and must be treated as
// read-only by every merge.
type runFamily[P comparable, T any] struct {
	run func(cfg Config, p P, seed int64) T
}

// sweep is the family's form of the package-level sweep: every point at
// every seed, per-point rows in seed order.
func (f *runFamily[P, T]) sweep(cfg Config, points []P) [][]T {
	seeds := cfg.seeds()
	flat := f.runs(cfg, len(points)*seeds, func(i int) (P, int64) {
		return points[i/seeds], cfg.BaseSeed + int64(i%seeds)
	})
	return bySeed(flat, len(points), seeds)
}

// runs returns the family's values at the n (point, seed) pairs that at
// returns, in index order. The orchestration goroutine (never a pool job) claims
// the pairs no experiment of the call has claimed yet, runs those it owns
// on the pool — each job publishing its value as it finishes — resolves
// whatever it owns but did not publish with the pool's error, and only
// then waits for the pairs other experiments own. A borrowed pair that
// failed records its owner's error, so a borrower never renders the zero
// values of a crashed or cancelled run. Without RunAll's table (Collect)
// the call claims into a fresh table of its own, so it owns every pair
// and shares nothing.
func (f *runFamily[P, T]) runs(cfg Config, n int, at func(i int) (P, int64)) []T {
	t := cfg.runs
	if t == nil {
		t = newRunTable()
	}
	keys := make([]runKey, n)
	for i := range keys {
		p, seed := at(i)
		keys[i] = runKey{family: f, point: p, seed: seed}
	}
	entries, owned := t.claim(keys)
	published := make([]bool, len(owned))
	_, err := mapJobs(cfg, len(owned), func(j int) struct{} {
		k := keys[owned[j]]
		entries[owned[j]].publish(f.run(cfg, k.point.(P), k.seed), nil)
		published[j] = true
		return struct{}{}
	})
	// runner.Map returns a non-nil error whenever a job did not finish.
	for j, i := range owned {
		if !published[j] {
			entries[i].publish(nil, err)
		}
	}
	out := make([]T, n)
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			cfg.noteFailure(e.err)
			continue
		}
		out[i] = e.val.(T)
	}
	return out
}

// runKey identifies one distinct simulation of a call: the family (by
// pointer, so two run functions never collide and the value's type is
// fixed by the key), the sweep point and the seed.
type runKey struct {
	family any
	point  any
	seed   int64
}

// runEntry is one claimed simulation. Its owner sets val or err exactly
// once and then closes done; readers wait on done.
type runEntry struct {
	done chan struct{}
	val  any
	err  error
}

func (e *runEntry) publish(val any, err error) {
	e.val, e.err = val, err
	close(e.done)
}

// runTable is the call-scoped record of every claimed simulation. RunAll
// installs a fresh one per call and drops it on return, so nothing is
// shared across calls.
type runTable struct {
	mu      sync.Mutex
	entries map[runKey]*runEntry
}

func newRunTable() *runTable {
	return &runTable{entries: map[runKey]*runEntry{}}
}

// claim returns the entry for every key, creating those no one has claimed
// yet; owned lists the indices whose entries this call created and must
// therefore resolve.
func (t *runTable) claim(keys []runKey) (entries []*runEntry, owned []int) {
	entries = make([]*runEntry, len(keys))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		e, ok := t.entries[k]
		if !ok {
			e = &runEntry{done: make(chan struct{})}
			t.entries[k] = e
			owned = append(owned, i)
		}
		entries[i] = e
	}
	return entries, owned
}
