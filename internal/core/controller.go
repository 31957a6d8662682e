// Package core implements the paper's primary contribution: coupled
// congestion-control algorithms for multipath TCP.
//
//   - OLIA — the Opportunistic Linked-Increases Algorithm (§IV, Eq. 5–6),
//     the algorithm this paper introduces and proves Pareto-optimal.
//   - LIA — the Linked-Increases Algorithm of RFC 6356 (§II, Eq. 1), the
//     MPTCP default whose problems P1/P2 the paper demonstrates.
//   - Uncoupled — per-path TCP Reno (the ε=2 endpoint of the design space).
//   - FullyCoupled — the ε=0 endpoint (Kelly/Voice-style full coupling),
//     Pareto-optimal but flappy.
//
// All controllers operate in packet (MSS) units on float64 windows, exactly
// as the per-ACK update rules are written in the paper, and compensate for
// heterogeneous RTTs through the smoothed RTT estimates of the subflows.
//
// The package also provides the loss-throughput fixed-point formulas used
// throughout the paper's analysis (TCP's √(2/p)/rtt, LIA's Eq. 2, and
// OLIA's Theorem-1 equilibrium).
package core

import "math"

// DefaultRTT substitutes for a subflow's RTT before the first sample exists
// (seconds). Windows are tiny at that point, so the value is uncritical.
const DefaultRTT = 0.1

// ConnView is the read-only view of an MPTCP connection a controller needs:
// per-subflow windows and RTT estimates. Implemented by mptcp.Conn.
type ConnView interface {
	// NumFlows reports the number of established subflows.
	NumFlows() int
	// CwndPkts reports subflow i's congestion window in packets.
	CwndPkts(i int) float64
	// SRTT reports subflow i's smoothed RTT in seconds (0 if unsampled).
	SRTT(i int) float64
	// MSS reports the segment size shared by the subflows.
	MSS() int
}

// Controller couples the congestion avoidance of an MPTCP connection's
// subflows. Implementations may keep per-connection state (OLIA's inter-loss
// byte counters); a Controller instance must not be shared across
// connections.
type Controller interface {
	// Name identifies the algorithm ("olia", "lia", ...).
	Name() string
	// Acked reports that subflow i received a new cumulative ACK covering n
	// bytes. If inCA is true the returned value — in packets, possibly
	// negative — is applied to subflow i's window; during slow start the
	// return value is ignored but the call still updates controller state.
	Acked(v ConnView, i int, n int, inCA bool) float64
	// Lost reports a window-halving loss event on subflow i.
	Lost(v ConnView, i int)
}

// rtt returns subflow i's RTT estimate with the pre-sample fallback.
func rtt(v ConnView, i int) float64 {
	if r := v.SRTT(i); r > 0 {
		return r
	}
	return DefaultRTT
}

// sumWOverRTT computes Σ_p w_p/rtt_p over established subflows (packets/s).
func sumWOverRTT(v ConnView) float64 {
	var s float64
	for p := 0; p < v.NumFlows(); p++ {
		s += v.CwndPkts(p) / rtt(v, p)
	}
	return s
}

// Uncoupled runs independent TCP Reno on every subflow: the ε=2 endpoint of
// the design space (§II). Very responsive, not flappy, but does not balance
// congestion and is unfair to single-path users at shared bottlenecks.
type Uncoupled struct{}

// NewUncoupled returns the ε=2 controller.
func NewUncoupled() *Uncoupled { return &Uncoupled{} }

// Name implements Controller.
func (*Uncoupled) Name() string { return "uncoupled" }

// Acked implements Controller: per-path Reno, 1/w_r per acked packet.
func (*Uncoupled) Acked(v ConnView, i int, n int, inCA bool) float64 {
	if !inCA {
		return 0
	}
	ackedPkts := float64(n) / float64(v.MSS())
	w := v.CwndPkts(i)
	if w <= 0 {
		return 0
	}
	return ackedPkts / w
}

// Lost implements Controller (stateless).
func (*Uncoupled) Lost(ConnView, int) {}

// LIA is the Linked-Increases Algorithm of RFC 6356 (Eq. 1): for each ACK on
// subflow r, increase w_r by
//
//	min( (max_i w_i/rtt_i²) / (Σ_i w_i/rtt_i)² , 1/w_r ).
//
// The first term couples the subflows; the min enforces that no subflow is
// more aggressive than a regular TCP on its path.
type LIA struct{}

// NewLIA returns the RFC 6356 controller.
func NewLIA() *LIA { return &LIA{} }

// Name implements Controller.
func (*LIA) Name() string { return "lia" }

// Acked implements Controller.
func (*LIA) Acked(v ConnView, i int, n int, inCA bool) float64 {
	if !inCA {
		return 0
	}
	ackedPkts := float64(n) / float64(v.MSS())
	w := v.CwndPkts(i)
	if w <= 0 {
		return 0
	}
	var maxTerm float64
	for p := 0; p < v.NumFlows(); p++ {
		r := rtt(v, p)
		if t := v.CwndPkts(p) / (r * r); t > maxTerm {
			maxTerm = t
		}
	}
	denom := sumWOverRTT(v)
	if denom <= 0 {
		return ackedPkts / w
	}
	inc := maxTerm / (denom * denom)
	if renoInc := 1 / w; renoInc < inc {
		inc = renoInc
	}
	return ackedPkts * inc
}

// Lost implements Controller (stateless; the sender halves the window).
func (*LIA) Lost(ConnView, int) {}

// FullyCoupled is the ε=0 endpoint (§II): the fully coupled algorithm of
// Kelly/Voice and Han et al. Increase 1/w_total per ACK on any path; on a
// loss on path r, decrease the total window by half, taken out of w_r. It
// achieves optimal resource pooling in fluid models but flaps between equally
// good paths — the behavior OLIA's α term is designed to avoid.
type FullyCoupled struct {
	view ConnView // captured on first use, for ReduceTo
}

// NewFullyCoupled returns the ε=0 controller.
func NewFullyCoupled() *FullyCoupled { return &FullyCoupled{} }

// Name implements Controller.
func (*FullyCoupled) Name() string { return "fullycoupled" }

// Acked implements Controller.
func (f *FullyCoupled) Acked(v ConnView, i int, n int, inCA bool) float64 {
	f.view = v
	if !inCA {
		return 0
	}
	ackedPkts := float64(n) / float64(v.MSS())
	var total float64
	for p := 0; p < v.NumFlows(); p++ {
		total += v.CwndPkts(p)
	}
	if total <= 0 {
		return 0
	}
	return ackedPkts / total
}

// Lost implements Controller.
func (f *FullyCoupled) Lost(v ConnView, i int) { f.view = v }

// TotalWndBytes reports the connection-wide window in bytes (0 before use).
func (f *FullyCoupled) TotalWndBytes() float64 {
	if f.view == nil {
		return 0
	}
	var total float64
	for p := 0; p < f.view.NumFlows(); p++ {
		total += f.view.CwndPkts(p)
	}
	return total * float64(f.view.MSS())
}

// ReduceTo implements the w_total/2 multiplicative decrease: the losing
// subflow's window absorbs the whole reduction (floored by the sender).
func (f *FullyCoupled) ReduceTo(cwndBytes float64) float64 {
	total := f.TotalWndBytes()
	if total <= 0 {
		return cwndBytes / 2
	}
	return math.Max(cwndBytes-total/2, 0)
}

// Controllers maps the algorithm names used in the paper's figures to
// constructors. Each call builds a fresh controller, since controllers
// such as OLIA carry per-connection state.
var Controllers = map[string]func() Controller{
	"olia":         func() Controller { return NewOLIA() },
	"lia":          func() Controller { return NewLIA() },
	"uncoupled":    func() Controller { return NewUncoupled() },
	"fullycoupled": func() Controller { return NewFullyCoupled() },
}
