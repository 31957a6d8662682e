package scenario

import (
	"context"
	"fmt"
	"math"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// samplePeriod is the cadence of the runtime invariant monitor. Sampling
// schedules its own events but draws no randomness and never touches a
// packet, so it cannot perturb the simulated dynamics.
const samplePeriod = 100 * sim.Millisecond

// QueueReport is the end-of-run view of one link's queue.
type QueueReport struct {
	Link     int            `json:"link"`
	Total    netem.Counters `json:"total"`  // since t=0
	Window   netem.Counters `json:"window"` // measured window only
	FinalLen int            `json:"final_len"`
	MaxLen   int            `json:"max_len"` // largest sampled backlog
	// LossDropped counts packets removed by the link's random-loss element.
	LossDropped int64 `json:"loss_dropped,omitempty"`
}

// FlowReport is the end-of-run view of one flow replica.
type FlowReport struct {
	Name      string `json:"name"`
	Algorithm string `json:"algorithm"`
	// GoodputMbps is the in-order delivery rate over the measured window;
	// PathMbps splits it per path in FlowSpec.Paths order.
	GoodputMbps float64   `json:"goodput_mbps"`
	PathMbps    []float64 `json:"path_mbps"`
	// GoodputBytes is the total in-order delivery since t=0 (the re-run
	// identity digest uses exact byte counts, not rates).
	GoodputBytes int64 `json:"goodput_bytes"`
	SentPkts     int64 `json:"sent_pkts"`
	Timeouts     int64 `json:"timeouts"`
	// Stream reports the scheduled transfer, present only for flows with
	// FlowSpec.Scheduler set.
	Stream *StreamReport `json:"stream,omitempty"`
}

// StreamReport is the end-of-run view of one scheduled finite transfer.
type StreamReport struct {
	Scheduler string `json:"scheduler"`
	// Done reports full in-order delivery within the run; CompletionSec is
	// the transfer duration (start to full delivery), valid only when Done.
	Done          bool    `json:"done"`
	CompletionSec float64 `json:"completion_sec,omitempty"`
	// InOrderBytes is the contiguous data-level prefix delivered by the end
	// of the run; DeliveredBytes counts distinct data bytes in any order (a
	// redundant duplicate counts once).
	InOrderBytes   int64 `json:"in_order_bytes"`
	DeliveredBytes int64 `json:"delivered_bytes"`
}

// RunReport is the outcome of one scenario run: measurements plus every
// invariant violation the monitor and the post-run checks detected.
type RunReport struct {
	Name      string        `json:"name"`
	Seed      int64         `json:"seed"`
	Flows     []FlowReport  `json:"flows"`
	Queues    []QueueReport `json:"queues"`
	Processed uint64        `json:"processed"`
	// Violations lists every failed invariant, empty on a clean run.
	Violations []string `json:"violations,omitempty"`
}

// Violate appends a formatted violation. It only runs when an invariant
// has already failed, so its formatting cost is off the hot path.
//
//simlint:cold
func (r *RunReport) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// monitor samples runtime invariants while the simulation advances.
type monitor struct {
	net    *Net
	report *RunReport

	// prevCum and prevAcked are the last sampled per-sink cumulative-ACK
	// and per-src acked-bytes marks, flattened over flows then paths.
	prevCum   []int64
	prevAcked []int64
	maxLen    []int
}

func newMonitor(n *Net, r *RunReport) *monitor {
	var nEnd int
	for _, f := range n.Flows {
		nEnd += len(f.Sinks)
	}
	return &monitor{
		net:       n,
		report:    r,
		prevCum:   make([]int64, nEnd),
		prevAcked: make([]int64, nEnd),
		maxLen:    make([]int, len(n.Links)),
	}
}

// RunEvent takes one sample and re-arms (sim.Handler). Schedule is the
// pooled fire-and-forget path, so the self-ticking monitor allocates no
// events in steady state.
func (m *monitor) RunEvent(now sim.Time) {
	m.sample(now)
	m.net.Sim.Schedule(now+samplePeriod, m)
}

// sample checks the instantaneous invariants: queue occupancy within the
// configured bound, congestion windows positive and finite, sequence
// progress (cumulative ACKs, sender acked bytes) monotone.
func (m *monitor) sample(now sim.Time) {
	for i, l := range m.net.Links {
		ln := l.Queue.Len()
		if ln > m.maxLen[i] {
			m.maxLen[i] = ln
		}
		if ln < 0 || ln > l.LimitPkts {
			m.report.violate("t=%v: link %d queue occupancy %d outside [0, %d]", now, i, ln, l.LimitPkts)
		}
	}
	k := 0
	for _, f := range m.net.Flows {
		for pi := range f.Sinks {
			cum := f.Sinks[pi].CumAck()
			if cum < m.prevCum[k] {
				m.report.violate("t=%v: flow %s path %d cumulative ACK went backwards (%d -> %d)",
					now, f.Name, pi, m.prevCum[k], cum)
			}
			m.prevCum[k] = cum
			acked := f.Srcs[pi].AckedBytes()
			if acked < m.prevAcked[k] {
				m.report.violate("t=%v: flow %s path %d sender acked-bytes went backwards (%d -> %d)",
					now, f.Name, pi, m.prevAcked[k], acked)
			}
			m.prevAcked[k] = acked
			k++
			cwnd := f.Srcs[pi].CwndPkts()
			if !(cwnd > 0) || math.IsInf(cwnd, 0) || math.IsNaN(cwnd) {
				m.report.violate("t=%v: flow %s path %d cwnd %g not positive and finite", now, f.Name, pi, cwnd)
			}
		}
	}
}

// Run compiles and executes the scenario, measuring goodput over the
// measured window (Net.Measure) and checking every invariant:
//
//   - queue occupancy stays within the configured buffer bound (sampled);
//   - congestion windows stay positive and finite (sampled);
//   - cumulative ACKs and sender progress never regress (sampled);
//   - per-queue packet conservation: arrivals = served + dropped + backlog;
//   - per-link throughput never exceeds capacity over the window;
//   - global packet conservation: every data segment sent is matched by a
//     delivered ACK, a drop somewhere, or an in-flight packet.
//
// Violations are collected in the report rather than returned as errors so
// a fuzzing run can report every broken invariant of a scenario at once.
//
// Cancelling ctx abandons the simulation at the next one-second
// virtual-time boundary and returns an error wrapping ctx.Err(). The
// cancellation probe never perturbs the run (see AdvanceUntil).
func Run(ctx context.Context, sp *Spec) (*RunReport, error) {
	n, err := Compile(sp)
	if err != nil {
		return nil, err
	}
	r := &RunReport{Name: sp.Name, Seed: sp.Seed}
	m := newMonitor(n, r)
	m.RunEvent(0) // first sample at t=0, then every samplePeriod
	w, err := n.Measure(ctx)
	if err != nil {
		return nil, err
	}

	for _, f := range n.Flows {
		fr := FlowReport{
			Name:      f.Name,
			Algorithm: sp.Flows[f.Spec].Algorithm,
			SentPkts:  f.SentPkts(),
		}
		for pi, k := range f.Sinks {
			mbps := stats.Mbps(w.PathBytes(f, pi), w.Secs)
			fr.PathMbps = append(fr.PathMbps, mbps)
			fr.GoodputMbps += mbps
			fr.GoodputBytes += k.GoodputBytes()
		}
		for _, s := range f.Srcs {
			fr.Timeouts += s.Stats().Timeouts
		}
		if f.Stream != nil {
			sr := &StreamReport{
				Scheduler:      sp.Flows[f.Spec].Scheduler,
				Done:           f.Stream.Done(),
				InOrderBytes:   f.Stream.InOrderBytes(),
				DeliveredBytes: f.Stream.DeliveredBytes(),
			}
			if sr.Done {
				sr.CompletionSec = f.Stream.CompletionTime().Sec()
			}
			fr.Stream = sr
		}
		r.Flows = append(r.Flows, fr)
	}
	for i, l := range n.Links {
		qr := QueueReport{
			Link:     i,
			Total:    l.Queue.Stats(),
			Window:   w.Queues[i],
			FinalLen: l.Queue.Len(),
			MaxLen:   m.maxLen[i],
		}
		if l.Loss != nil {
			qr.LossDropped = l.Loss.Dropped
		}
		r.Queues = append(r.Queues, qr)
	}
	r.Processed = n.Sim.Processed()

	checkConservation(n, r)
	checkCapacity(sp, r)
	return r, nil
}

// checkConservation verifies per-queue and global packet accounting at the
// end of the run.
func checkConservation(n *Net, r *RunReport) {
	for i, l := range n.Links {
		c := l.Queue.Stats()
		if got := c.SentPkts + c.DroppedPkts + int64(l.Queue.Len()); c.ArrivedPkts != got {
			r.violate("link %d queue leaks packets: %d arrived, %d served+dropped+queued",
				i, c.ArrivedPkts, got)
		}
	}
	rc := n.Rev.Q.Stats()
	if got := rc.SentPkts + rc.DroppedPkts + int64(n.Rev.Q.Len()); rc.ArrivedPkts != got {
		r.violate("reverse queue leaks packets: %d arrived, %d served+dropped+queued", rc.ArrivedPkts, got)
	}

	// Global: data segments sent = ACKs delivered + drops + in flight.
	// The receiver emits exactly one ACK per delivered data segment
	// (delayed ACKs are never enabled by the compiler), so matching sends
	// against delivered ACKs closes the loop around both directions.
	var sent, acked, dropped, inflight int64
	for _, f := range n.Flows {
		sent += f.SentPkts()
		acked += f.AckTap.Pkts
	}
	for _, l := range n.Links {
		dropped += l.Queue.Stats().DroppedPkts
		if l.Loss != nil {
			dropped += l.Loss.Dropped
		}
		inflight += int64(l.Queue.Len())
	}
	dropped += rc.DroppedPkts
	inflight += int64(n.Rev.Q.Len())
	for _, p := range n.pipes {
		inflight += int64(p.InFlight())
	}
	if sent != acked+dropped+inflight {
		r.violate("packet conservation broken: %d data segments sent, %d acked + %d dropped + %d in flight = %d",
			sent, acked, dropped, inflight, acked+dropped+inflight)
	}
}

// checkCapacity verifies that no queue served more bytes over the measured
// window than its line rate allows. With a timeline the bound is the time
// integral of the link's piecewise-constant rate profile. The slack covers
// a packet whose serialization straddles each window edge, plus one packet
// per in-window rate transition (the in-service packet finishes on the
// schedule armed under the old rate).
func checkCapacity(sp *Spec, r *RunReport) {
	for i := range r.Queues {
		w := r.Queues[i].Window
		capBytes, transitions := sp.windowCapBytes(i)
		slack := float64((2 + transitions) * netem.MSS)
		if float64(w.SentBytes) > capBytes+slack {
			r.violate("link %d served %d bytes in %gs, above time-varying capacity %.0f",
				i, w.SentBytes, sp.DurationSec, capBytes)
		}
	}
}

// windowCapBytes integrates link l's rate profile — the spec rate plus
// every timeline rate setpoint — over the measured window, reporting the
// byte bound and the number of in-window rate transitions.
func (sp *Spec) windowCapBytes(l int) (capBytes float64, transitions int) {
	from := sp.WarmupSec
	to := sp.WarmupSec + sp.DurationSec
	rate := sp.Links[l].RateMbps
	t := from
	for i := range sp.Timeline {
		ev := sp.Timeline[i].Link
		if ev == nil || ev.Link != l || ev.RateMbps <= 0 {
			continue
		}
		at := sp.Timeline[i].AtSec
		if at > to {
			break // events are time-ordered; nothing later is in the window
		}
		if at <= from {
			rate = ev.RateMbps // already in effect when the window opens
			continue
		}
		capBytes += rate * 1e6 / 8 * (at - t)
		rate = ev.RateMbps
		t = at
		transitions++
	}
	capBytes += rate * 1e6 / 8 * (to - t)
	return capBytes, transitions
}

// Digest is the comparable fingerprint of a run, for the re-run
// byte-identity invariant: two runs of one spec must agree exactly.
type Digest struct {
	Processed uint64
	Goodput   string // per-flow exact byte counts
	Queues    string // per-queue counters
}

// Digest fingerprints the report.
func (r *RunReport) Digest() Digest {
	var g, q string
	for _, f := range r.Flows {
		g += fmt.Sprintf("%s=%d;", f.Name, f.GoodputBytes)
		if f.Stream != nil {
			g += fmt.Sprintf("%s/stream=%d,%d,%v;", f.Name, f.Stream.InOrderBytes, f.Stream.DeliveredBytes, f.Stream.Done)
		}
	}
	for _, c := range r.Queues {
		q += fmt.Sprintf("%d:%+v;", c.Link, c.Total)
	}
	return Digest{Processed: r.Processed, Goodput: g, Queues: q}
}
