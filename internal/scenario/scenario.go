// Package scenario is a typed, declarative description of arbitrary N-path
// simulation topologies, compiled into runnable packet-level simulations.
//
// A Spec names links (rate, propagation delay, random loss, queue
// discipline), paths (link sequences plus a per-flow access delay), and
// flows (congestion-control algorithm, path set, replica count, start/stop
// times, workload size). Compile wires every spec in one fixed element
// order and draws randomness in one fixed sequence, so a spec and seed
// reproduce a run byte for byte. The paper's testbed rigs are spec
// builders here (PaperScenarioA, PaperScenarioB, PaperScenarioC, TwoLink):
// the figure experiments, the fuzzer (fuzz.go), which generates topologies
// far outside the paper's figures, and the conformance oracle
// (conformance.go), which cross-checks packet-level steady states against
// the fluid-model and fixed-point analyses, all run the same definitions.
package scenario

import (
	"fmt"
	"math"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

// QueueKind names a link's buffering discipline.
type QueueKind string

const (
	// QueueRED is the paper's testbed RED configuration (the default).
	QueueRED QueueKind = "red"
	// QueueDropTail is a fixed-size FIFO (htsim's data-center default).
	QueueDropTail QueueKind = "droptail"
)

// LinkSpec describes one unidirectional congestible link: a rate-limited
// queue followed by a propagation pipe, optionally preceded by a random
// loss element.
type LinkSpec struct {
	// RateMbps is the line rate in Mb/s. Required, > 0.
	RateMbps float64 `json:"rate_mbps"`
	// DelayMs is the link's own one-way propagation delay. Paths add their
	// per-flow access delay on top (see PathSpec.DelayMs).
	DelayMs float64 `json:"delay_ms,omitempty"`
	// Queue selects the discipline; empty means RED.
	Queue QueueKind `json:"queue,omitempty"`
	// BufferPkts overrides the buffer size in packets: the drop-tail limit
	// (default 100), or the RED hard limit with thresholds kept at the
	// paper's rate-scaled values. 0 keeps the defaults.
	BufferPkts int `json:"buffer_pkts,omitempty"`
	// LossPct is an i.i.d. random drop percentage applied before the queue
	// (non-congestive loss). 0 disables.
	LossPct float64 `json:"loss_pct,omitempty"`
}

// PathSpec is one route flows can use: an ordered sequence of links, with a
// per-flow access (trim) pipe in front carrying the path's propagation
// delay — the structure of the paper's testbed, where bottleneck queues
// have zero delay and each user's access path carries the 40 ms one-way
// latency.
type PathSpec struct {
	// Links indexes Spec.Links in traversal order. Required, non-empty.
	Links []int `json:"links"`
	// DelayMs is the per-flow access pipe's one-way delay. Zero elides the
	// access pipe entirely (flows enter the first link's queue directly),
	// matching hand-wired rigs whose delay lives on the links themselves.
	DelayMs float64 `json:"delay_ms,omitempty"`
}

// AlgoTCP is the FlowSpec.Algorithm value for a plain single-path TCP
// (Reno) flow with no multipath coupling.
const AlgoTCP = "tcp"

// FlowSpec describes one group of identical flows.
type FlowSpec struct {
	// Name labels the group in reports ("type1", "bg0", ...).
	Name string `json:"name,omitempty"`
	// Algorithm is a coupled controller name ("olia", "lia", "uncoupled",
	// "fullycoupled") or AlgoTCP for a plain single-path TCP flow.
	Algorithm string `json:"algorithm"`
	// Paths indexes Spec.Paths: the subflow routes of a multipath flow, or
	// exactly one path for AlgoTCP.
	Paths []int `json:"paths"`
	// Count replicates the flow; 0 means 1.
	Count int `json:"count,omitempty"`
	// StartSec is the earliest start time; with StartJitter set, a
	// uniformly random offset in [0, 1 s) is added per replica — the
	// paper's randomized Iperf start order.
	StartSec    float64 `json:"start_sec,omitempty"`
	StartJitter bool    `json:"start_jitter,omitempty"`
	// StopSec pauses the flow's senders at this time (0 = never). Paused
	// flows stop injecting new segments; in-flight data drains normally.
	StopSec float64 `json:"stop_sec,omitempty"`
	// FlowBytes bounds the transfer; 0 means long-lived (unbounded).
	FlowBytes int64 `json:"flow_bytes,omitempty"`
	// Scheduler selects the subflow scheduling policy for a finite multipath
	// transfer (see mptcp.Schedulers: "pull", "minrtt", "roundrobin", "ecf",
	// "redundant"). Empty keeps the legacy per-subflow split of FlowBytes
	// with no connection-level reassembly. Requires a multipath Algorithm
	// and FlowBytes > 0.
	Scheduler string `json:"scheduler,omitempty"`
	// ChunkBytes is the scheduling granularity for Scheduler flows; 0 means
	// mptcp.DefaultChunk. Only valid with Scheduler set.
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// KeepSlowStart preserves normal slow start on multipath subflows
	// instead of the paper's §IV-B ssthresh=1 setting.
	KeepSlowStart bool `json:"keep_slow_start,omitempty"`
	// MaxCwndPkts caps every sender's congestion window, in packets, the
	// way a small receive window would. 0 means no cap.
	MaxCwndPkts float64 `json:"max_cwnd_pkts,omitempty"`
	// NoIncreaseCap lifts the per-ACK cap that keeps a coupled controller
	// from growing a subflow window faster than Reno (RFC 6356 goal 2).
	// Only the increase-cap ablation sets it.
	NoIncreaseCap bool `json:"no_increase_cap,omitempty"`
	// BaseID seeds the replica flow IDs (replica r gets
	// BaseID + r·len(Paths)); 0 lets the compiler assign them.
	BaseID int `json:"base_id,omitempty"`
}

// Spec is a complete scenario: topology plus workload plus run window.
type Spec struct {
	// Name labels the scenario in reports.
	Name string `json:"name,omitempty"`
	// Seed drives every random choice (start jitter, RED, random loss).
	Seed int64 `json:"seed"`
	// WarmupSec and DurationSec bound the measured window: metrics cover
	// [Warmup, Warmup+Duration].
	WarmupSec   float64 `json:"warmup_sec"`
	DurationSec float64 `json:"duration_sec"`

	Links []LinkSpec `json:"links"`
	Paths []PathSpec `json:"paths"`
	Flows []FlowSpec `json:"flows"`

	// Timeline lists timestamped mid-run mutations — link shaping
	// setpoints and path flaps — in non-decreasing time order (see
	// timeline.go). Empty means a static network.
	Timeline []TimelineEvent `json:"timeline,omitempty"`

	// ReverseRateMbps and ReverseDelayMs shape the shared uncongested
	// return (ACK) path; zero selects the testbed values (1000 Mb/s,
	// 40 ms).
	ReverseRateMbps float64 `json:"reverse_rate_mbps,omitempty"`
	ReverseDelayMs  float64 `json:"reverse_delay_ms,omitempty"`
}

// reverse-path defaults: the testbed's uncongested return direction.
const (
	defaultReverseRateMbps = 1000
	defaultReverseDelayMs  = 40
)

// startSpread is the window over which jittered flow starts randomize (the
// paper starts its Iperf sessions in random order).
const startSpread = sim.Second

// Validate checks the spec for structural errors: empty topology, bad
// indices, non-positive rates, negative times, NaN or infinite numbers,
// unknown algorithms, AlgoTCP flows with more than one path, and malformed
// timelines (out-of-range link/path indices, decreasing or negative times,
// out-of-range setpoint values). It returns the first problem found.
func (sp *Spec) Validate() error {
	if !finite(sp.WarmupSec, sp.DurationSec, sp.ReverseRateMbps, sp.ReverseDelayMs) {
		return fmt.Errorf("scenario %q: non-finite run window or reverse-path shape", sp.Name)
	}
	if sp.DurationSec <= 0 {
		return fmt.Errorf("scenario %q: duration must be positive, got %g", sp.Name, sp.DurationSec)
	}
	if sp.WarmupSec < 0 {
		return fmt.Errorf("scenario %q: negative warmup %g", sp.Name, sp.WarmupSec)
	}
	if sp.ReverseRateMbps < 0 || sp.ReverseDelayMs < 0 {
		return fmt.Errorf("scenario %q: negative reverse-path shape", sp.Name)
	}
	if len(sp.Links) == 0 {
		return fmt.Errorf("scenario %q: no links", sp.Name)
	}
	for i, l := range sp.Links {
		if !finite(l.RateMbps, l.DelayMs, l.LossPct) {
			return fmt.Errorf("scenario %q: link %d has a non-finite rate, delay or loss", sp.Name, i)
		}
		if l.RateMbps <= 0 {
			return fmt.Errorf("scenario %q: link %d rate must be positive, got %g", sp.Name, i, l.RateMbps)
		}
		if l.DelayMs < 0 {
			return fmt.Errorf("scenario %q: link %d has negative delay", sp.Name, i)
		}
		if l.LossPct < 0 || l.LossPct >= 100 {
			return fmt.Errorf("scenario %q: link %d loss %g%% outside [0, 100)", sp.Name, i, l.LossPct)
		}
		if l.BufferPkts < 0 {
			return fmt.Errorf("scenario %q: link %d has negative buffer", sp.Name, i)
		}
		switch l.Queue {
		case "", QueueRED, QueueDropTail:
		default:
			return fmt.Errorf("scenario %q: link %d has unknown queue kind %q", sp.Name, i, l.Queue)
		}
	}
	if len(sp.Paths) == 0 {
		return fmt.Errorf("scenario %q: no paths", sp.Name)
	}
	for i, p := range sp.Paths {
		if len(p.Links) == 0 {
			return fmt.Errorf("scenario %q: path %d crosses no links", sp.Name, i)
		}
		if !finite(p.DelayMs) {
			return fmt.Errorf("scenario %q: path %d has a non-finite delay", sp.Name, i)
		}
		if p.DelayMs < 0 {
			return fmt.Errorf("scenario %q: path %d has negative delay", sp.Name, i)
		}
		for _, li := range p.Links {
			if li < 0 || li >= len(sp.Links) {
				return fmt.Errorf("scenario %q: path %d references link %d (have %d)", sp.Name, i, li, len(sp.Links))
			}
		}
	}
	if len(sp.Flows) == 0 {
		return fmt.Errorf("scenario %q: no flows", sp.Name)
	}
	for i, f := range sp.Flows {
		if !finite(f.StartSec, f.StopSec, f.MaxCwndPkts) {
			return fmt.Errorf("scenario %q: flow %d has a non-finite start, stop or window cap", sp.Name, i)
		}
		if f.Algorithm != AlgoTCP {
			if _, ok := core.Controllers[f.Algorithm]; !ok {
				return fmt.Errorf("scenario %q: flow %d has unknown algorithm %q", sp.Name, i, f.Algorithm)
			}
		}
		if len(f.Paths) == 0 {
			return fmt.Errorf("scenario %q: flow %d uses no paths", sp.Name, i)
		}
		if f.Algorithm == AlgoTCP && len(f.Paths) != 1 {
			return fmt.Errorf("scenario %q: flow %d: plain TCP needs exactly one path, got %d", sp.Name, i, len(f.Paths))
		}
		for _, pi := range f.Paths {
			if pi < 0 || pi >= len(sp.Paths) {
				return fmt.Errorf("scenario %q: flow %d references path %d (have %d)", sp.Name, i, pi, len(sp.Paths))
			}
		}
		if f.Count < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative count", sp.Name, i)
		}
		if f.StartSec < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative start time", sp.Name, i)
		}
		if f.StopSec < 0 || (f.StopSec > 0 && f.StopSec <= f.StartSec) {
			return fmt.Errorf("scenario %q: flow %d stop time %g not after start %g", sp.Name, i, f.StopSec, f.StartSec)
		}
		if f.FlowBytes < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative flow bytes", sp.Name, i)
		}
		if f.MaxCwndPkts < 0 {
			return fmt.Errorf("scenario %q: flow %d has a negative window cap", sp.Name, i)
		}
		if f.ChunkBytes < 0 {
			return fmt.Errorf("scenario %q: flow %d has negative chunk bytes", sp.Name, i)
		}
		if f.ChunkBytes > 0 && f.Scheduler == "" {
			return fmt.Errorf("scenario %q: flow %d sets chunk bytes without a scheduler", sp.Name, i)
		}
		if f.Scheduler != "" {
			if _, err := mptcp.NewScheduler(f.Scheduler); err != nil {
				return fmt.Errorf("scenario %q: flow %d: %w", sp.Name, i, err)
			}
			if f.Algorithm == AlgoTCP {
				return fmt.Errorf("scenario %q: flow %d: scheduler %q needs a multipath algorithm", sp.Name, i, f.Scheduler)
			}
			if f.FlowBytes == 0 {
				return fmt.Errorf("scenario %q: flow %d: scheduler %q needs finite flow bytes", sp.Name, i, f.Scheduler)
			}
			if f.FlowBytes < int64(len(f.Paths)) {
				return fmt.Errorf("scenario %q: flow %d: %d flow bytes across %d paths", sp.Name, i, f.FlowBytes, len(f.Paths))
			}
			if f.StopSec > 0 {
				return fmt.Errorf("scenario %q: flow %d: scheduler flows cannot set a stop time", sp.Name, i)
			}
		}
	}
	return sp.validateTimeline()
}

// finite reports whether every value is a finite number. NaN passes every
// ordinary range check (all comparisons with it are false), and ±Inf
// passes the one-sided ones, so Validate tests finiteness first.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// count normalizes a FlowSpec's replica count.
func (f *FlowSpec) count() int {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// EndTime is the simulated instant the measured window closes.
func (sp *Spec) EndTime() sim.Time {
	return sim.Seconds(sp.WarmupSec) + sim.Seconds(sp.DurationSec)
}

// The paper's testbed rigs follow. Bottleneck links are RED-queued with no
// propagation delay of their own; each path's access pipe carries the
// testbed's 40 ms one-way delay, so a path crossing two bottlenecks keeps
// the 80 ms propagation RTT of a one-bottleneck path. Flow IDs are fixed
// per group (BaseID) so traces keep the same numbering across scenarios.

// testbedDelayMs is the per-path access delay of the testbed rigs.
const testbedDelayMs = 40

// PaperScenarioA expresses the paper's Fig. 1(a) testbed as a Spec: N1
// type1 multipath users download over a private path (server access link
// only, loss p1) and a path continuing across the shared AP (loss p1+p2);
// N2 type2 TCP users cross the shared AP alone. Capacities are per user
// (server link N1·C1, shared AP N2·C2, Mb/s), starts are jittered as in
// the testbed. The figure experiments (internal/harness) and the
// fixed-point conformance check run this one definition of the topology.
func PaperScenarioA(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	return &Spec{
		Name: "scenarioA", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: float64(n1) * c1}, // server access link (loss p1)
			{RateMbps: float64(n2) * c2}, // shared AP (loss p2)
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},    // type1 private path
			{Links: []int{0, 1}, DelayMs: testbedDelayMs}, // type1 path via the shared AP
			{Links: []int{1}, DelayMs: testbedDelayMs},    // type2 path
		},
		Flows: []FlowSpec{
			{Name: "type1", Algorithm: algo, Paths: []int{0, 1},
				Count: n1, StartJitter: true, BaseID: 1000},
			{Name: "type2", Algorithm: AlgoTCP, Paths: []int{2},
				Count: n2, StartJitter: true, BaseID: 2000},
		},
	}
}

// PaperScenarioB expresses the paper's Fig. 3 multi-homing testbed: N Blue
// multipath users reach ISP X (capacity CX Mb/s) and ISP T (CT Mb/s); N Red
// users reach T, and with redMultipath they also use the dashed upgrade
// path, which crosses X then T in series. This is the path structure
// implied by the paper's capacity constraints (CX = N(x1+y1),
// CT = N(x2+y1+y2), Appendix B), and it gives the cut-set bound of CX+CT
// quoted in §III-B. Flow groups: Blue, then Red.
func PaperScenarioB(n int, cx, ct float64, algo string, redMultipath bool, seed int64, warmupSec, durationSec float64) *Spec {
	red := FlowSpec{Name: "red", Algorithm: AlgoTCP, Paths: []int{1},
		Count: n, StartJitter: true, BaseID: 4000}
	if redMultipath {
		red = FlowSpec{Name: "red", Algorithm: algo, Paths: []int{2, 1},
			Count: n, StartJitter: true, BaseID: 5000}
	}
	return &Spec{
		Name: "scenarioB", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: cx}, // ISP X
			{RateMbps: ct}, // ISP T
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},    // via X
			{Links: []int{1}, DelayMs: testbedDelayMs},    // via T
			{Links: []int{0, 1}, DelayMs: testbedDelayMs}, // Red's upgrade path, X then T
		},
		Flows: []FlowSpec{
			{Name: "blue", Algorithm: algo, Paths: []int{0, 1},
				Count: n, StartJitter: true, BaseID: 3000},
			red,
		},
	}
}

// PaperScenarioC expresses the paper's Fig. 5(a) testbed: N1 multipath
// users across AP1 and AP2, N2 single-path TCP users on AP2 alone. AP
// capacities are N1·C1 and N2·C2 Mb/s. Unlike Scenario A, the two
// multipath paths are disjoint (losses p1 and p2). Flow groups: multipath,
// then single-path.
func PaperScenarioC(n1, n2 int, c1, c2 float64, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	return &Spec{
		Name: "scenarioC", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links: []LinkSpec{
			{RateMbps: float64(n1) * c1}, // AP1
			{RateMbps: float64(n2) * c2}, // AP2
		},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs}, // via AP1
			{Links: []int{1}, DelayMs: testbedDelayMs}, // via AP2
		},
		Flows: []FlowSpec{
			{Name: "multi", Algorithm: algo, Paths: []int{0, 1},
				Count: n1, StartJitter: true, BaseID: 6000},
			{Name: "single", Algorithm: AlgoTCP, Paths: []int{1},
				Count: n2, StartJitter: true, BaseID: 7000},
		},
	}
}

// TwoLink expresses the paper's Fig. 6 illustration rig: one multipath
// user over two bottleneck links of c Mb/s each, sharing link 1 with ntcp1
// and link 2 with ntcp2 regular TCP flows. The TCP flows start jittered;
// the multipath user starts at 0.5 s, after the background has begun. Path
// 0 crosses link 1 and path 1 crosses link 2. Flow groups: the TCP flows
// of link 1, those of link 2, then the multipath user last. A link with no
// TCP flows gets no group.
//
// Variants edit the returned spec: a Queue on both links, a longer
// DelayMs on path 1 (RTT heterogeneity), or KeepSlowStart, MaxCwndPkts
// or NoIncreaseCap on the multipath flow.
func TwoLink(c float64, ntcp1, ntcp2 int, algo string, seed int64, warmupSec, durationSec float64) *Spec {
	sp := &Spec{
		Name: "twolink", Seed: seed,
		WarmupSec:   warmupSec,
		DurationSec: durationSec,
		Links:       []LinkSpec{{RateMbps: c}, {RateMbps: c}},
		Paths: []PathSpec{
			{Links: []int{0}, DelayMs: testbedDelayMs},
			{Links: []int{1}, DelayMs: testbedDelayMs},
		},
	}
	for i, n := range []int{ntcp1, ntcp2} {
		if n != 0 { // a negative count stays in, for Validate to reject
			sp.Flows = append(sp.Flows, FlowSpec{Name: fmt.Sprintf("tcp%d", i+1), Algorithm: AlgoTCP,
				Paths: []int{i}, Count: n, StartJitter: true, BaseID: 100 * (i + 1)})
		}
	}
	sp.Flows = append(sp.Flows, FlowSpec{Name: "mp", Algorithm: algo, Paths: []int{0, 1},
		StartSec: 0.5, BaseID: 300})
	return sp
}

// bufferLimit reports the hard occupancy bound (packets) of link l's queue,
// for the queue-bound invariant.
func (sp *Spec) bufferLimit(l int) int {
	ls := sp.Links[l]
	switch ls.Queue {
	case QueueDropTail:
		if ls.BufferPkts > 0 {
			return ls.BufferPkts
		}
		return netem.DefaultDropTailPkts
	default: // RED
		if ls.BufferPkts > 0 {
			return ls.BufferPkts
		}
		return netem.PaperRED(int64(ls.RateMbps * 1e6)).LimitPkts
	}
}
