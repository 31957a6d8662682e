package netem

// ring is the FIFO behind both Pipe (packets in flight) and queueCore (the
// backlog): a power-of-two circular buffer with O(1) push and pop.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// at returns the i-th element from the head (0 is the head).
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes the head, clearing its slot so the ring keeps nothing alive.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles a full ring, unwrapping it so the head lands at index 0.
func (r *ring[T]) grow() {
	next := make([]T, max(2*len(r.buf), 8))
	n := copy(next, r.buf[r.head:])
	copy(next[n:], r.buf[:r.head])
	r.buf, r.head = next, 0
}
