package scenario

import (
	"context"
	"fmt"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// Window is what a run delivered over its measured window, from the
// warm-up snapshot at Spec.WarmupSec to Spec.EndTime(): each flow's
// in-order bytes per path and each link's queue counters.
type Window struct {
	// Secs is the window's length, Spec.DurationSec.
	Secs float64
	// Queues holds each link's queue counters over the window, in
	// Spec.Links order.
	Queues []netem.Counters
	// bytes holds every flow's in-order bytes per path, flow f's paths at
	// bytes[f.slot:].
	bytes []int64
	net   *Net
}

// Measure runs a freshly compiled network to Spec.EndTime() and returns its
// measured window. The warm-up snapshot is an event at Spec.WarmupSec armed
// when Measure is called: it sees every event due at that instant that was
// scheduled before the call (compile-time starts, timeline setpoints, the
// caller's probes) and none the run itself schedules for it. Measure is the
// only place a run's window is taken. Cancelling ctx abandons the run at a
// one-second virtual-time boundary (AdvanceUntil) and returns an error
// wrapping ctx.Err().
func (n *Net) Measure(ctx context.Context) (*Window, error) {
	w := &Window{
		Secs:   n.Spec.DurationSec,
		Queues: make([]netem.Counters, len(n.Links)),
		bytes:  make([]int64, n.slots),
		net:    n,
	}
	n.Sim.Schedule(sim.Seconds(n.Spec.WarmupSec), (*warmup)(w))
	if err := AdvanceUntil(ctx, n.Sim, n.Sim.Now(), n.Spec.EndTime()); err != nil {
		return nil, fmt.Errorf("scenario %q: run canceled: %w", n.Spec.Name, err)
	}
	for i, l := range n.Links {
		w.Queues[i] = l.Queue.Stats().Sub(w.Queues[i])
	}
	for _, f := range n.Flows {
		for pi, k := range f.Sinks {
			w.bytes[f.slot+pi] = k.GoodputBytes() - w.bytes[f.slot+pi]
		}
	}
	return w, nil
}

// warmup is a Window seen as the handler of its warm-up snapshot event
// (sim.Handler); sharing the Window's memory, arming it allocates nothing.
type warmup Window

func (s *warmup) RunEvent(sim.Time) {
	for i, l := range s.net.Links {
		s.Queues[i] = l.Queue.Stats()
	}
	for _, f := range s.net.Flows {
		for pi, k := range f.Sinks {
			s.bytes[f.slot+pi] = k.GoodputBytes()
		}
	}
}

// PathBytes reports the in-order bytes flow f delivered on its path i
// (FlowSpec.Paths order) over the window.
func (w *Window) PathBytes(f *Flow, i int) int64 { return w.bytes[f.slot+i] }

// Mbps is the flows' combined goodput over the window: their bytes on every
// path are summed as integers first and divided by the window once.
func (w *Window) Mbps(flows ...*Flow) float64 {
	var total int64
	for _, f := range flows {
		for _, b := range w.bytes[f.slot : f.slot+len(f.Sinks)] {
			total += b
		}
	}
	return stats.Mbps(total, w.Secs)
}
