// Package sim provides the discrete-event simulation kernel used by every
// other subsystem in this repository: a virtual clock, an event queue with
// deterministic FIFO tie-breaking, timers, and a seeded random source.
//
// The design follows htsim's EventList: components schedule callbacks at
// absolute virtual times and the kernel runs them in nondecreasing time
// order. Virtual time is an int64 nanosecond count, which gives ~292 years
// of range — far more than the 120-second experiments in the paper — while
// keeping arithmetic exact (no float drift in packet serialization times).
//
// The kernel is built for zero steady-state allocation on the packet hot
// path: the event queue is an inlined, index-tracked 4-ary min-heap over
// *Event (no container/heap interface boxing), events are recycled through
// a per-Sim free list, and the Handler fast path schedules without
// allocating a closure. At/After remain as closure-taking conveniences for
// cold paths. See DESIGN.md "Performance & memory model".
package sim

import (
	"fmt"
	"math/rand"
	"strconv"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Millis converts a floating-point millisecond count to a Time.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Sec converts t to floating-point seconds.
func (t Time) Sec() float64 { return float64(t) / float64(Second) }

// Msec converts t to floating-point milliseconds.
func (t Time) Msec() float64 { return float64(t) / float64(Millisecond) }

// String formats t as seconds with microsecond precision ("1.500000s"),
// identically to fmt.Sprintf("%.6fs", t.Sec()) but without fmt's verb
// parsing and interface boxing: it sits on trace paths.
func (t Time) String() string {
	var buf [24]byte
	b := strconv.AppendFloat(buf[:0], t.Sec(), 'f', 6, 64)
	b = append(b, 's')
	return string(b)
}

// Handler is the closure-free scheduling fast path: per-packet hot sites
// (pipe delivery, queue service completion, protocol timers) implement
// RunEvent on a long-lived component so scheduling allocates nothing.
type Handler interface {
	RunEvent(now Time)
}

// PayloadHandler is a Handler variant carrying an opaque payload (for
// example a *netem.Packet). Storing a pointer in the any does not allocate.
// The constant-delay Pipe batches its packets behind one timer instead, so
// no built-in component needs this today; it exists for one-shot
// packet-carrying events (loss or jitter injectors, replay drivers) that
// have no natural FIFO ring.
type PayloadHandler interface {
	RunPayload(now Time, payload any)
}

// Event is one scheduled callback. Events are owned by the kernel: user
// code holds Timer handles, never *Event. Fire-and-forget events (Schedule,
// SchedulePayload) are recycled through the free list as they run; retained
// events (At, After, ScheduleTimer) stay re-armable until explicitly freed.
type Event struct {
	at  Time
	seq uint64 // schedule order; breaks ties deterministically (FIFO)
	gen uint64 // incremented at each recycle; stale Timer handles mismatch
	idx int32  // heap index; -1 when not queued
	// retained marks events whose Timer handle escaped to a caller: they
	// are never auto-recycled, keeping Cancel/Reschedule re-arm semantics.
	retained bool

	// cb holds the callback: a Handler, a func() closure, or a
	// PayloadHandler (with payload). Funcs and pointers are pointer-shaped,
	// so storing them in the any never allocates; dispatch is a type
	// switch. Sharing one callback slot across the three kinds (instead of
	// a field per kind) keeps Event at 64 bytes.
	cb      any
	payload any
}

// Timer is a handle to a scheduled event. The zero Timer is inert. A Timer
// becomes stale once its event is freed and recycled; Cancel and Reschedule
// through a stale handle are no-ops, so a recycled event can never be
// affected through an old handle.
type Timer struct {
	e   *Event
	gen uint64
}

// Valid reports whether the handle still refers to its original event (the
// event may be pending, fired, or cancelled — all re-armable states).
func (tm Timer) Valid() bool { return tm.e != nil && tm.e.gen == tm.gen }

// Pending reports whether the event is currently queued.
func (tm Timer) Pending() bool { return tm.Valid() && tm.e.idx >= 0 }

// When reports the virtual time the event is (or was last) scheduled for;
// zero for invalid handles.
func (tm Timer) When() Time {
	if !tm.Valid() {
		return 0
	}
	return tm.e.at
}

// Sim is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model components run inside event callbacks.
type Sim struct {
	now     Time
	heap    []*Event // 4-ary min-heap on (at, seq)
	free    []*Event // event free list (single-threaded, no locking)
	nextSeq uint64
	rng     *rand.Rand
	nEvents uint64 // processed events (for diagnostics)
	stopped bool
	aux     any
}

// New returns a simulator whose random source is seeded with seed.
// The same seed always yields the same execution.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have been executed so far.
func (s *Sim) Processed() uint64 { return s.nEvents }

// Aux returns the per-simulation attachment installed by SetAux, or nil.
func (s *Sim) Aux() any { return s.aux }

// SetAux attaches arbitrary per-simulation state owned by a higher layer.
// netem anchors its packet free list here (netem.PoolFor); the kernel never
// inspects the value.
func (s *Sim) SetAux(v any) { s.aux = v }

// --- event allocation ---

func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{idx: -1}
}

// recycle returns e to the free list. The generation bump turns every
// outstanding Timer for e stale; references are cleared so the list does
// not retain closures or payloads.
func (s *Sim) recycle(e *Event) {
	e.gen++
	e.cb = nil
	e.payload = nil
	e.retained = false
	e.idx = -1
	s.free = append(s.free, e)
}

// --- 4-ary min-heap on (at, seq), index-tracked ---
//
// A 4-ary layout halves tree depth versus binary, and the inlined
// comparisons avoid container/heap's interface calls and any-boxing. (at,
// seq) is a total order (seq is unique), so the pop order — and therefore
// every simulation result — is independent of heap arity.

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) push(e *Event) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap) - 1)
}

func (s *Sim) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = e
	e.idx = int32(i)
}

func (s *Sim) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], h[m]) {
				m = j
			}
		}
		if !eventLess(h[m], e) {
			break
		}
		h[i] = h[m]
		h[i].idx = int32(i)
		i = m
	}
	h[i] = e
	e.idx = int32(i)
}

// popMin removes and returns the earliest event. The heap must be non-empty.
func (s *Sim) popMin() *Event {
	e := s.heap[0]
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	e.idx = -1
	if n > 0 {
		s.heap[0] = last
		last.idx = 0
		s.siftDown(0)
	}
	return e
}

// remove deletes a queued event from an arbitrary heap position.
func (s *Sim) remove(e *Event) {
	i := int(e.idx)
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = nil
	s.heap = s.heap[:n]
	e.idx = -1
	if i < n {
		s.heap[i] = last
		last.idx = int32(i)
		s.siftDown(i)
		if int(last.idx) == i {
			s.siftUp(i)
		}
	}
}

// --- scheduling ---

func (s *Sim) checkFuture(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
}

func (s *Sim) takeSeq() uint64 {
	q := s.nextSeq
	s.nextSeq++
	return q
}

func (s *Sim) arm(e *Event, t Time, seq uint64) {
	e.at = t
	e.seq = seq
	s.push(e)
}

// At schedules fn to run at absolute virtual time t and returns a
// re-armable handle. Scheduling in the past panics: that is always a model
// bug and silently reordering time would make results meaningless.
//
// At allocates a closure slot per call; hot paths should implement Handler
// and use Schedule/ScheduleTimer instead.
func (s *Sim) At(t Time, fn func()) Timer {
	s.checkFuture(t)
	e := s.alloc()
	e.cb = fn
	e.retained = true
	s.arm(e, t, s.takeSeq())
	return Timer{e, e.gen}
}

// After schedules fn to run d after the current time.
func (s *Sim) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now+d, fn)
}

// Schedule arms h to run at absolute time t, fire-and-forget: no handle is
// returned and the event is recycled as it fires. This is the zero-
// allocation hot path.
func (s *Sim) Schedule(t Time, h Handler) {
	s.checkFuture(t)
	e := s.alloc()
	e.cb = h
	s.arm(e, t, s.takeSeq())
}

// ScheduleAfter arms h to run d after the current time, fire-and-forget.
func (s *Sim) ScheduleAfter(d Time, h Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.Schedule(s.now+d, h)
}

// SchedulePayload arms h at absolute time t carrying payload,
// fire-and-forget. Pointer payloads are stored without allocation. h must
// not also implement Handler: dispatch discriminates by interface, and the
// plain-Handler case wins.
func (s *Sim) SchedulePayload(t Time, h PayloadHandler, payload any) {
	s.checkFuture(t)
	if _, both := h.(Handler); both {
		panic("sim: payload handler must not also implement Handler")
	}
	e := s.alloc()
	e.cb = h
	e.payload = payload
	s.arm(e, t, s.takeSeq())
}

// ScheduleTimer arms h at absolute time t and returns a re-armable handle,
// for long-lived timers (RTO, delayed ACK) that are cancelled and
// rescheduled in place. The event stays usable — and allocated — until
// Free.
func (s *Sim) ScheduleTimer(t Time, h Handler) Timer {
	s.checkFuture(t)
	e := s.alloc()
	e.cb = h
	e.retained = true
	s.arm(e, t, s.takeSeq())
	return Timer{e, e.gen}
}

// ReserveSeq hands out one FIFO tie-break sequence number, exactly as
// scheduling an event now would consume. A component that batches many
// logical events behind one kernel event (netem.Pipe's delivery ring)
// reserves a seq per item at admission and arms its single timer with
// ScheduleTimerSeq/RescheduleSeq, preserving bit-exact event ordering with
// the one-event-per-item design.
func (s *Sim) ReserveSeq() uint64 { return s.takeSeq() }

// ScheduleTimerSeq is ScheduleTimer with an explicit sequence number
// previously obtained from ReserveSeq.
func (s *Sim) ScheduleTimerSeq(t Time, seq uint64, h Handler) Timer {
	s.checkFuture(t)
	e := s.alloc()
	e.cb = h
	e.retained = true
	s.arm(e, t, seq)
	return Timer{e, e.gen}
}

// RescheduleSeq re-arms tm at (t, seq) with seq from ReserveSeq. Like
// Reschedule it re-arms fired or cancelled events; stale handles are
// no-ops.
func (s *Sim) RescheduleSeq(tm Timer, t Time, seq uint64) {
	s.checkFuture(t)
	e := tm.e
	if e == nil {
		panic("sim: rescheduling the zero Timer")
	}
	if e.gen != tm.gen {
		return // stale: the event was recycled into a new incarnation
	}
	if e.idx >= 0 {
		s.remove(e)
	}
	s.arm(e, t, seq)
}

// Cancel removes a scheduled event. Cancelling the zero Timer, a stale
// handle, or an already-run or already-cancelled event is a no-op. The
// handle stays valid: Reschedule can re-arm the event afterwards.
func (s *Sim) Cancel(tm Timer) {
	e := tm.e
	if e == nil || e.gen != tm.gen || e.idx < 0 {
		return
	}
	s.remove(e)
}

// Reschedule moves a pending event to a new absolute time, preserving its
// callback. If the event already fired or was cancelled, it is re-armed.
// Rescheduling through a stale handle (the event was freed and recycled) is
// a complete no-op — it does not even consume a tie-break sequence number,
// so a stale call cannot perturb the deterministic event order.
// Rescheduling the zero Timer panics.
func (s *Sim) Reschedule(tm Timer, t Time) {
	e := tm.e
	if e == nil {
		panic("sim: rescheduling the zero Timer")
	}
	if e.gen != tm.gen {
		return
	}
	s.RescheduleSeq(tm, t, s.takeSeq())
}

// Free cancels tm if pending and returns its event to the free list. All
// handles to the event become stale and inert. Freeing the zero Timer or a
// stale handle is a no-op. Long-lived components release their timers here
// when they finish (for example a completed TCP flow's RTO timer) so
// high-churn workloads recycle instead of garbage-collecting them.
func (s *Sim) Free(tm Timer) {
	e := tm.e
	if e == nil || e.gen != tm.gen {
		return
	}
	if e.idx >= 0 {
		s.remove(e)
	}
	s.recycle(e)
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return len(s.heap) }

// FreeEvents reports the current size of the event free list (diagnostics
// and pooling tests).
func (s *Sim) FreeEvents() int { return len(s.free) }

// Stop makes Run/RunUntil return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// step executes the earliest event. It reports false when the queue is empty.
//
//simlint:hot
func (s *Sim) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.popMin()
	if e.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.at
	s.nEvents++
	cb, payload := e.cb, e.payload
	if !e.retained {
		// Recycle before dispatch: a handler that immediately reschedules
		// (a self-ticking component) reuses this very event, so the steady
		// state runs on a single pooled Event.
		s.recycle(e)
	}
	switch v := cb.(type) {
	case Handler:
		v.RunEvent(s.now)
	case func():
		v()
	case PayloadHandler:
		v.RunPayload(s.now, payload)
	default:
		panic("sim: event without a callback")
	}
	return true
}

// RunUntil executes events in order until the next one lies past end, the
// queue drains, or Stop is called. Unless stopped, the clock then advances
// to end (it never moves back), so measurement windows stay well-defined.
// A stopped run leaves the clock at the last dispatched event: events still
// pending must be able to run at their own times when a later RunUntil or
// Run resumes.
func (s *Sim) RunUntil(end Time) {
	s.stopped = false
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= end {
		s.step()
	}
	if !s.stopped && s.now < end {
		s.now = end
	}
}

// Run executes events until the queue drains or Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}
