// Package workload generates the traffic patterns of the paper's
// evaluation: long-lived bulk transfers (Iperf-style, §III), random
// permutation traffic matrices (FatTree throughput, §VI-B1), and Poisson
// arrivals of fixed-size short flows (70 KB every 200 ms on average,
// §VI-B2).
package workload

import (
	"math"
	"math/rand"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// PathPair is a bidirectional path between two hosts: the forward hops carry
// data toward the destination, the reverse hops carry ACKs back. Endpoints
// are excluded — flows append their own Sink/Src, so one PathPair can be
// shared by many flows.
type PathPair struct {
	Fwd []netem.Node
	Rev []netem.Node
}

// NewBulk wires a long-lived (or finite, per cfg.FlowBytes) TCP flow over
// the path. Call Start on the returned source.
func NewBulk(s *sim.Sim, id int, name string, path PathPair, cfg tcp.Config) (*tcp.Src, *tcp.Sink) {
	src := tcp.NewSrc(s, id, name, cfg)
	sink := tcp.NewSink(s)
	src.SetRoute(netem.NewRoute(path.Fwd...).Append(sink))
	sink.SetRoute(netem.NewRoute(path.Rev...).Append(src))
	return src, sink
}

// NewMultipath wires a multipath connection with one subflow per path:
// subflow i carries flow ID firstID+i over paths[i]. Call Start on the
// returned connection, or hand it to a stream.
func NewMultipath(s *sim.Sim, name string, ctrl core.Controller, cfg tcp.Config, firstID int, paths []PathPair) *mptcp.Conn {
	conn := mptcp.New(s, name, ctrl, cfg)
	for i, p := range paths {
		sf := conn.AddSubflow(firstID + i)
		sf.SetRoutes(
			netem.NewRoute(p.Fwd...).Append(sf.Sink),
			netem.NewRoute(p.Rev...).Append(sf.Src),
		)
	}
	return conn
}

// Permutation returns a uniformly random permutation of 0..n-1 with no fixed
// points (no host sends to itself), by rejection sampling. n must be ≥ 2.
func Permutation(rng *rand.Rand, n int) []int {
	if n < 2 {
		panic("workload: permutation needs n >= 2")
	}
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// ShortFlows generates fixed-size TCP flows along one path with Poisson
// (exponential inter-arrival) arrivals, the §VI-B2 workload. Each flow is an
// independent TCP connection with fresh congestion state.
type ShortFlows struct {
	s       *sim.Sim
	path    PathPair
	size    int64
	meanGap sim.Time
	cfg     tcp.Config
	baseID  int
	stopAt  sim.Time

	started int
	// Done holds the completion time of every finished flow (seconds).
	Done []float64
	// Active tracks currently running flows.
	Active int
}

// NewShortFlows configures a generator: flows of size bytes arrive with mean
// spacing meanGap until stopAt.
func NewShortFlows(s *sim.Sim, baseID int, path PathPair, size int64, meanGap, stopAt sim.Time, cfg tcp.Config) *ShortFlows {
	if size <= 0 || meanGap <= 0 {
		panic("workload: bad short-flow parameters")
	}
	cfg.FlowBytes = size
	return &ShortFlows{
		s: s, path: path, size: size, meanGap: meanGap, cfg: cfg,
		baseID: baseID, stopAt: stopAt,
	}
}

// Started reports how many flows have been launched.
func (g *ShortFlows) Started() int { return g.started }

// Start schedules the arrival process beginning at the given time.
func (g *ShortFlows) Start(at sim.Time) {
	g.s.Schedule(at, g)
}

// RunEvent launches the next flow arrival (sim.Handler): the generator
// reschedules itself through the kernel's pooled fast path.
func (g *ShortFlows) RunEvent(now sim.Time) { g.spawn() }

// expGap draws an exponential inter-arrival time with mean meanGap.
func (g *ShortFlows) expGap() sim.Time {
	u := g.s.Rand().Float64()
	for u == 0 {
		u = g.s.Rand().Float64()
	}
	d := sim.FromNanos(-math.Log(u) * g.meanGap.Nanos())
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

// spawn launches one flow and schedules the next arrival.
func (g *ShortFlows) spawn() {
	id := g.baseID + g.started
	g.started++
	src, _ := NewBulk(g.s, id, "short", g.path, g.cfg)
	g.Active++
	//simlint:ignore hotpathalloc one callback per flow arrival, not per packet; flow setup allocates by design
	src.OnComplete = func(s *tcp.Src) {
		g.Active--
		g.Done = append(g.Done, s.CompletionTime().Sec())
	}
	src.Start(g.s.Now())
	if next := g.s.Now() + g.expGap(); next <= g.stopAt {
		g.s.Schedule(next, g)
	}
}
