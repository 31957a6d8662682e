package scenario

import (
	"fmt"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// CompiledLink is one built link with the handles the invariant checks and
// measurements need.
type CompiledLink struct {
	Spec  LinkSpec
	Queue netem.Queue
	Pipe  *netem.Pipe
	// Loss is the random-loss element, nil when LossPct is 0 and no
	// timeline setpoint targets this link's loss.
	Loss *netem.RandomLoss
	// LimitPkts is the hard occupancy bound of Queue.
	LimitPkts int
}

// Flow is one built flow replica. Multipath flows expose Conn; AlgoTCP
// flows expose the Src/Sink pair directly. Either way Sinks[i] is the
// receiving endpoint of path i (FlowSpec.Paths order) and Srcs[i] its
// sender.
type Flow struct {
	// Spec indexes the Spec.Flows entry this replica came from; Replica is
	// its position within the group.
	Spec    int
	Replica int
	Name    string

	// Conn is the multipath connection (nil for AlgoTCP flows).
	Conn *mptcp.Conn
	// Stream is the scheduled finite byte stream (nil unless the spec sets
	// FlowSpec.Scheduler).
	Stream *mptcp.Stream

	Srcs  []*tcp.Src
	Sinks []*tcp.Sink

	// AckTap counts ACKs delivered back to this flow's senders, for the
	// conservation invariant.
	AckTap *netem.Tap
}

// GoodputBytes sums in-order bytes delivered across the flow's paths.
func (f *Flow) GoodputBytes() int64 {
	var total int64
	for _, k := range f.Sinks {
		total += k.GoodputBytes()
	}
	return total
}

// PathGoodputBytes reports in-order bytes delivered on path i (flow-local
// index).
func (f *Flow) PathGoodputBytes(i int) int64 { return f.Sinks[i].GoodputBytes() }

// SentPkts sums data segments transmitted (retransmissions included)
// across the flow's senders.
func (f *Flow) SentPkts() int64 {
	var total int64
	for _, s := range f.Srcs {
		total += s.Stats().SentPkts
	}
	return total
}

// Net is a compiled scenario: the live simulation plus handles to every
// element the runtime measures.
type Net struct {
	Spec *Spec
	Sim  *sim.Sim

	Links []*CompiledLink
	// Flows lists every replica in creation order; Groups indexes them by
	// Spec.Flows entry.
	Flows  []*Flow
	Groups [][]*Flow

	// Rev is the shared return link; pipes lists every propagation pipe
	// (link, reverse and per-flow access pipes) for in-flight accounting.
	Rev   *netem.Link
	pipes []*netem.Pipe
	// pathFlows indexes, per Spec.Paths entry, every sender routed over
	// that path, for timeline flap events.
	pathFlows [][]pathRef
}

// Compile validates the spec and builds its network. Elements are created
// in a fixed order — links, the shared return link, then flows in listing
// order, each replica drawing its start jitter as it is created — so a
// spec consumes its seed's random stream identically on every compile and
// reproduces its output byte for byte.
func Compile(sp *Spec) (*Net, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	s := sim.New(sp.Seed)
	n := &Net{Spec: sp, Sim: s, pathFlows: make([][]pathRef, len(sp.Paths))}

	// The timeline driver is armed first — before any flow-start event — so
	// a t=0 setpoint is in effect for the very first transmission. Arming
	// draws no randomness and adds no events to a timeline-free spec, so
	// existing scenarios stay byte-identical.
	if len(sp.Timeline) > 0 {
		s.Schedule(sim.Seconds(sp.Timeline[0].AtSec), &timelineDriver{net: n})
	}

	for i, ls := range sp.Links {
		n.Links = append(n.Links, buildLink(s, ls, i, sp.bufferLimit(i), sp.timelineTouchesLoss(i)))
	}
	revRate, revDelay := sp.ReverseRateMbps, sp.ReverseDelayMs
	if revRate == 0 {
		revRate = defaultReverseRateMbps
	}
	if revDelay == 0 {
		revDelay = defaultReverseDelayMs
	}
	n.Rev = netem.NewLink(s, netem.LinkConfig{
		RateBps:      int64(revRate * 1e6),
		Delay:        sim.Millis(revDelay),
		Kind:         netem.QueueDropTail,
		DropTailPkts: 10_000,
	}, "rev")
	for _, l := range n.Links {
		n.pipes = append(n.pipes, l.Pipe)
	}
	n.pipes = append(n.pipes, n.Rev.P)

	nextID := 1000
	n.Groups = make([][]*Flow, len(sp.Flows))
	for fi := range sp.Flows {
		fs := &sp.Flows[fi]
		base := fs.BaseID
		if base == 0 {
			base = nextID
		}
		for r := 0; r < fs.count(); r++ {
			id := base + r*len(fs.Paths)
			f := n.buildFlow(fi, r, id)
			n.Flows = append(n.Flows, f)
			n.Groups[fi] = append(n.Groups[fi], f)
		}
		nextID = base + fs.count()*len(fs.Paths)
		// Round up so the next group starts on a fresh thousand block,
		// keeping IDs readable in traces.
		nextID = (nextID/1000 + 1) * 1000
	}
	return n, nil
}

// buildLink assembles one unidirectional link. needLoss forces a loss
// element even at LossPct 0 (a timeline setpoint will retarget it); an idle
// element draws no randomness, so the spec's RNG stream is unchanged until
// the setpoint fires.
func buildLink(s *sim.Sim, ls LinkSpec, idx, limit int, needLoss bool) *CompiledLink {
	name := fmt.Sprintf("link%d", idx)
	cfg := netem.LinkConfig{
		RateBps: int64(ls.RateMbps * 1e6),
		Delay:   sim.Millis(ls.DelayMs),
	}
	switch ls.Queue {
	case QueueDropTail:
		cfg.Kind = netem.QueueDropTail
		cfg.DropTailPkts = ls.BufferPkts // 0 keeps the 100-packet default
	case QueueRED, "": // empty means RED; Validate rejects anything else
		cfg.Kind = netem.QueueRED
		if ls.BufferPkts > 0 {
			red := netem.PaperRED(cfg.RateBps)
			red.LimitPkts = ls.BufferPkts
			cfg.REDCfg = &red
		}
	}
	cl := &CompiledLink{Spec: ls, LimitPkts: limit}
	link := netem.NewLink(s, cfg, name)
	cl.Queue, cl.Pipe = link.Q, link.P
	if ls.LossPct > 0 || needLoss {
		cl.Loss = netem.NewRandomLoss(s, ls.LossPct/100)
	}
	return cl
}

// forwardHops lists the hops of one path: the per-flow access pipe, then
// each link's loss element (if any), queue and pipe. A zero-delay path
// builds no access pipe at all: even a 0 ms pipe reserves kernel sequence
// numbers and defers each packet by one event, so eliding it is what lets
// a spec reproduce a hand-wired rig (the old builder.go Simulate topology,
// which fronts its queues with nothing) byte for byte.
func (n *Net) forwardHops(pi int) []netem.Node {
	ps := &n.Spec.Paths[pi]
	var hops []netem.Node
	if ps.DelayMs > 0 {
		trim := netem.NewPipe(n.Sim, sim.Millis(ps.DelayMs), fmt.Sprintf("path%d/trim", pi))
		hops = append(hops, trim)
		n.pipes = append(n.pipes, trim)
	}
	for _, li := range ps.Links {
		l := n.Links[li]
		if l.Loss != nil {
			hops = append(hops, l.Loss)
		}
		hops = append(hops, l.Queue, l.Pipe)
	}
	return hops
}

// buildFlow wires one replica of Spec.Flows[fi].
func (n *Net) buildFlow(fi, replica, flowID int) *Flow {
	sp := n.Spec
	fs := &sp.Flows[fi]
	name := fs.Name
	if name == "" {
		name = fmt.Sprintf("flow%d", fi)
	}
	f := &Flow{
		Spec:    fi,
		Replica: replica,
		Name:    fmt.Sprintf("%s-%d", name, replica),
		AckTap:  &netem.Tap{},
	}
	cfg := tcp.Config{FlowBytes: fs.FlowBytes, MaxCwndPkts: fs.MaxCwndPkts, NoIncreaseCap: fs.NoIncreaseCap}
	if fs.Scheduler != "" {
		// A scheduled stream owns data assignment: subflows start unbounded
		// and the stream portions FlowBytes out in chunks.
		cfg.FlowBytes = 0
	}
	rev := n.Rev

	if fs.Algorithm == AlgoTCP {
		src := tcp.NewSrc(n.Sim, flowID, f.Name, cfg)
		sink := tcp.NewSink(n.Sim)
		src.SetRoute(netem.NewRoute(n.forwardHops(fs.Paths[0])...).Append(sink))
		sink.SetRoute(netem.NewRoute(rev.Q, rev.P, f.AckTap, src))
		src.Start(n.startAt(fs))
		f.Srcs, f.Sinks = []*tcp.Src{src}, []*tcp.Sink{sink}
		n.pathFlows[fs.Paths[0]] = append(n.pathFlows[fs.Paths[0]], pathRef{flow: f, sub: 0})
	} else {
		conn := mptcp.New(n.Sim, f.Name, core.Controllers[fs.Algorithm](), cfg)
		conn.SetKeepSlowStart(fs.KeepSlowStart)
		for i, pi := range fs.Paths {
			sf := conn.AddSubflow(flowID + i)
			sf.SetRoutes(
				netem.NewRoute(n.forwardHops(pi)...).Append(sf.Sink),
				netem.NewRoute(rev.Q, rev.P, f.AckTap, sf.Src),
			)
			f.Srcs = append(f.Srcs, sf.Src)
			f.Sinks = append(f.Sinks, sf.Sink)
			n.pathFlows[pi] = append(n.pathFlows[pi], pathRef{flow: f, sub: i})
		}
		if fs.Scheduler != "" {
			sched, err := mptcp.NewScheduler(fs.Scheduler)
			if err != nil {
				panic(err) // unreachable: Validate vetted the name
			}
			f.Stream = mptcp.NewStreamSched(conn, fs.FlowBytes, fs.ChunkBytes, sched)
			f.Stream.Start(n.startAt(fs))
		} else {
			conn.Start(n.startAt(fs))
		}
		f.Conn = conn
	}
	if fs.StopSec > 0 {
		srcs := f.Srcs
		n.Sim.At(sim.Seconds(fs.StopSec), func() {
			for _, s := range srcs {
				s.Pause()
			}
		})
	}
	return f
}

// startAt computes one replica's start time: StartSec plus, with
// StartJitter, a uniform offset in [0, startSpread) drawn from the seed's
// stream as the replica is built.
func (n *Net) startAt(fs *FlowSpec) sim.Time {
	at := sim.Seconds(fs.StartSec)
	if fs.StartJitter {
		at += sim.RandBelow(n.Sim.Rand(), startSpread)
	}
	return at
}
