// Package hotcase exercises the hotpathalloc analyzer: hot roots by
// method name, transitive hotness, //simlint:hot and //simlint:cold
// markers, and each allocation idiom.
package hotcase

import "mptcpsim/internal/sim"

type comp struct {
	s    *sim.Sim
	buf  []int
	next sim.Time
	fifo box[int]
}

func (c *comp) RunEvent(now sim.Time) {
	c.s.At(now+1, func(now sim.Time) {}) // want `\(\*sim.Sim\).At allocates a closure slot` `closure allocated in hot path RunEvent`
	c.s.Schedule(now+1, c)               // zero-alloc path: a pointer never boxes
	c.helperAppend(1)
	c.helperBox(now)
	c.helperOK(now)
	c.helperSuppressed()
	c.failure(now)
	c.fifo.put(2)
}

// box is a generic container: calls through an instantiation reach the
// generic declaration, so its methods are hot transitively too.
type box[T any] struct{ items []T }

func (b *box[T]) put(v T) {
	var xs []T
	xs = append(xs, v) // want `append to xs grows an unpreallocated local slice`
	b.items = append(b.items, xs...)
}

// helperAppend is hot transitively (called from RunEvent).
func (c *comp) helperAppend(v int) {
	var xs []int
	xs = append(xs, v) // want `append to xs grows an unpreallocated local slice`
	c.buf = append(c.buf, xs...)
}

func sinkAny(v any) {}

func sinkVariadic(args ...any) {}

func (c *comp) helperBox(now sim.Time) {
	sinkAny(now)             // want `converting .*sim.Time to any boxes`
	sinkVariadic(now, c.buf) // want `converting .*sim.Time to any boxes` `converting \[\]int to any boxes`
	sinkAny(c)               // a pointer fits the interface word: no boxing
	sinkAny(nil)             // nil never boxes
}

func (c *comp) helperOK(now sim.Time) {
	ys := make([]int, 0, 8)
	ys = append(ys, int(now)) // preallocated: amortized zero
	zs := c.buf[:0]
	zs = append(zs, 2) // reused field buffer: amortized zero
	c.buf = zs[:len(ys)]
}

func (c *comp) helperSuppressed() {
	//simlint:ignore hotpathalloc fixture proves suppression reaches hot findings
	h := func() {}
	h()
}

// failure reports an invariant violation; it runs at most once per
// simulation, on the way to an error.
//
//simlint:cold
func (c *comp) failure(now sim.Time) {
	sinkVariadic(now, "bad") // cold: boxing on the failure path is free
}

// Recv is a hot root by name (the per-packet delivery entry point).
func (c *comp) Recv(now sim.Time) {
	c.s.After(1, func(now sim.Time) {}) // want `\(\*sim.Sim\).After allocates a closure slot` `closure allocated in hot path Recv`
}

// marked is not a root by name, but the directive makes it one.
//
//simlint:hot
func marked(s *sim.Sim, t sim.Time) {
	s.At(t, func(now sim.Time) {}) // want `\(\*sim.Sim\).At allocates a closure slot` `closure allocated in hot path marked`
}

// coldPlain is neither a root nor reachable from one: the same idioms are
// fine in setup/teardown code.
func coldPlain(s *sim.Sim, t sim.Time) {
	var xs []int
	xs = append(xs, 1)
	s.At(t, func(now sim.Time) { _ = xs })
	sinkAny(t)
}
