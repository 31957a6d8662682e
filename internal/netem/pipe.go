package netem

import "mptcpsim/internal/sim"

// Pipe models fixed propagation delay: every packet entering the pipe leaves
// it exactly Delay later, order-preserving, with no capacity limit. It is the
// direct analogue of htsim's Pipe. Serialization (rate) is modeled by Queue,
// so a physical link is a Queue followed by a Pipe.
//
// Because the delay is constant, FIFO admission order is also delivery-time
// order, so the pipe keeps a single kernel timer plus a ring of pending
// (deliverAt, seq, packet) entries instead of one event per packet in
// flight. Each admission still reserves a kernel sequence number, so
// deliveries keep the exact (time, seq) FIFO tie-break they would have had
// with one event per packet — simulation results are bit-identical, at a
// fraction of the allocation cost.
type Pipe struct {
	sim   *sim.Sim
	delay sim.Time
	name  string

	ring ring[pipeEntry]
	tm   sim.Timer // single pending delivery event (the ring head's)
}

// pipeEntry is one in-flight packet with its precomputed delivery key.
type pipeEntry struct {
	at  sim.Time
	seq uint64
	pkt *Packet
}

// NewPipe returns a pipe with the given one-way propagation delay.
func NewPipe(s *sim.Sim, delay sim.Time, name string) *Pipe {
	if delay < 0 {
		panic("netem: negative pipe delay")
	}
	return &Pipe{sim: s, delay: delay, name: name}
}

// Delay reports the pipe's propagation delay.
func (pp *Pipe) Delay() sim.Time { return pp.delay }

// SetDelay retargets the propagation delay from now on. Packets already in
// flight keep the departure time computed at admission; later admissions use
// the new delay. Safe at any point mid-run: Recv clamps each admission to
// the current tail's departure so a delay decrease cannot reorder the ring.
//
//simlint:hot
func (pp *Pipe) SetDelay(d sim.Time) {
	if d < 0 {
		panic("netem: negative pipe delay")
	}
	pp.delay = d
}

// Name identifies the pipe in traces.
func (pp *Pipe) Name() string { return pp.name }

// InFlight reports the number of packets currently crossing the pipe.
func (pp *Pipe) InFlight() int { return pp.ring.n }

// Recv admits the packet: it will be forwarded to the next hop delay later.
// If SetDelay shrank the delay while earlier packets are still in flight,
// the admission is clamped to the tail's departure time — the wire stays
// FIFO, exactly as a real propagation medium would behave. With a constant
// delay the clamp never fires. No allocation in steady state.
func (pp *Pipe) Recv(p *Packet) {
	at := pp.sim.Now() + pp.delay
	if pp.ring.n > 0 {
		at = max(at, pp.ring.at(pp.ring.n-1).at)
	}
	pp.ring.push(pipeEntry{at: at, seq: pp.sim.ReserveSeq(), pkt: p})
	if pp.ring.n == 1 {
		pp.arm(pp.ring.at(0))
	}
}

// arm (re)schedules the pipe's single timer for the ring head's key.
func (pp *Pipe) arm(h *pipeEntry) {
	if pp.tm.Valid() {
		pp.sim.RescheduleSeq(pp.tm, h.at, h.seq)
	} else {
		pp.tm = pp.sim.ScheduleTimerSeq(h.at, h.seq, pp)
	}
}

// RunEvent delivers exactly the ring head (one logical event per packet,
// so Processed() counts match the one-event-per-packet design) and re-arms
// for the next entry. The ring is updated before SendOn so reentrant
// admissions see a consistent pipe.
func (pp *Pipe) RunEvent(now sim.Time) {
	e := pp.ring.pop()
	if pp.ring.n > 0 {
		pp.arm(pp.ring.at(0))
	}
	e.pkt.SendOn()
}
