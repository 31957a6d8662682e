package harness

import (
	"fmt"
	"io"
	"slices"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/workload"
)

// probeMetrics is one §VII bad-path-suspension run: normalized rates plus
// the number of suspension episodes.
type probeMetrics struct {
	single, multi float64
	suspends      int
}

// runProbeSuspension executes one Scenario-C-like run with or without
// bad-path suspension enabled on the multipath users.
func runProbeSuspension(cfg Config, enable bool, seed int64) probeMetrics {
	n := compileRig(scenario.PaperScenarioC(
		20, 10, 2.0, 1.0, "olia", seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	multi, single := n.Groups[0], n.Groups[1]
	if enable {
		for _, f := range multi {
			f.Conn.EnableProbeControl(mptcp.ProbeControl{})
		}
	}
	w, err := n.Measure(cfg.context())
	if err != nil {
		return probeMetrics{} // cancelled: CollectResult discards the collection
	}
	var m probeMetrics
	for _, f := range multi {
		m.multi += w.Mbps(f) / 2.0 / 20
		m.suspends += f.Conn.SuspendCount(0) + f.Conn.SuspendCount(1)
	}
	for _, f := range single {
		m.single += w.Mbps(f) / 1.0 / 10
	}
	return m
}

// extProbe evaluates the §VII future-work extension: suspending
// persistently-bad paths drops the probing traffic below 1 MSS per RTT,
// pushing the single-path users of a Scenario-C-like network past the
// "optimum with probing cost" line.
func extProbe(cfg Config) (*Result, error) {
	variants := []bool{false, true}
	per := sweep(cfg, variants, func(enable bool, seed int64) probeMetrics {
		return runProbeSuspension(cfg, enable, seed)
	})
	opt := 1 - 2.0*0.08 // optimum-with-probing single-path norm at N1/N2=2
	r := &Result{
		Preamble: []string{"Scenario C (N1=20, N2=10, C1/C2=2) with OLIA: bad-path suspension (§VII)"},
		Columns: []Column{
			{Name: "variant"},
			{Name: "single", Unit: "norm"}, {Name: "multi", Unit: "norm"},
			{Name: "suspensions"},
		},
		Footer: []string{fmt.Sprintf(
			"(optimum WITH probing cost for singles: %.3f; suspension can exceed it)", opt)},
	}
	for i, enable := range variants {
		var single, multi stats.Summary
		suspends := 0
		for _, m := range per[i] {
			single.Add(m.single)
			multi.Add(m.multi)
			suspends += m.suspends
		}
		name := "probing floor (std)"
		if enable {
			name = "bad-path suspension"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), SummaryCell(single), SummaryCell(multi), IntCell(suspends),
		})
	}
	return r, nil
}

// textExtProbe is the classic bad-path-suspension table layout.
func textExtProbe(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-24s | %-18s | %-18s | %s\n",
		"variant", "single-path (norm)", "multipath (norm)", "suspensions")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-24s | %8.3f±%-8.3f | %8.3f±%-8.3f | %d\n",
			c[0].Text, c[1].Value, c[1].CI95, c[2].Value, c[2].CI95, c[3].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// extRwnd evaluates receive-window limitations (§VII's last suggestion): a
// multipath user whose peer advertises a small window cannot even reach its
// best-path TCP rate, regardless of coupling.
func extRwnd(cfg Config) (*Result, error) {
	rwnds := []float64{0, 16, 8, 4}
	outs := perPoint(cfg, rwnds, func(rwnd float64) twoLinkOutcome {
		sp := twoLinkSpec(cfg, 5, 5, "olia")
		twoLinkMP(sp).MaxCwndPkts = rwnd
		return runTwoLink(cfg, sp)
	})
	r := &Result{
		Preamble: []string{"Two-link rig, OLIA: effect of a receive-window cap on the aggregate"},
		Columns: []Column{
			{Name: "rwnd", Unit: "pkts"},
			{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
		},
	}
	for i, rwnd := range rwnds {
		o := outs[i]
		label := "unlimited"
		if rwnd > 0 {
			label = fmt.Sprintf("%.0f", rwnd)
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(label), NumCell(o.mp1 + o.mp2), NumCell((o.bg1 + o.bg2) / 2),
		})
	}
	return r, nil
}

// textExtRwnd is the classic receive-window table layout.
func textExtRwnd(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-12s | %-10s | %s\n", "rwnd (pkts)", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}

// streamOutcome is one serial-transfer comparison run: completion-time
// statistics for the requested number of transfers.
type streamOutcome struct {
	mode string
	sum  stats.Summary
}

// runSerialTransfers measures `transfers` back-to-back finite transfers of
// the given size over the two-link rig under one transport mode.
//
// The run ends when its last transfer completes: the background TCP flows
// keep the event queue busy, but nothing after that moment reaches the
// completion times. 600 s is only the cap for a transfer that never
// finishes. Of the harness's run horizons, only this one outlasted its
// answer: sched-matrix and sched-flap report scenario.Run's full-window
// counters, and the data-centre short-flow run's 2 s drain counts toward
// its core utilization, so those runs must reach their horizons.
func runSerialTransfers(cfg Config, mode string, size int64, transfers int) streamOutcome {
	n := serialRig(cfg)
	out := streamOutcome{mode: mode}
	launchSerial(n, mode, size, transfers, func(d sim.Time) { out.sum.Add(d.Sec()) })
	n.Sim.RunUntil(600 * sim.Second)
	return out
}

// serialRig is the two-link rig without its own multipath user: serial
// transfers get their own endpoints over the same queues.
func serialRig(cfg Config) *scenario.Net {
	sp := twoLinkSpec(cfg, 2, 2, "olia")
	sp.Flows = sp.Flows[:2]
	return compileRig(sp)
}

// extStreams compares finite transfers done as single-path TCP against
// MPTCP data-level streams (DSS-style scheduling + reassembly) over two
// paths: connection-level completion time is the metric, so reassembly
// head-of-line blocking is included — a facet the paper leaves to future
// work ("flow durations").
func extStreams(cfg Config) (*Result, error) {
	const xferBytes = 512 * 1024
	const transfers = 20
	modes := []string{"tcp", "mptcp-olia stream"}
	outs := perPoint(cfg, modes, func(mode string) streamOutcome {
		return runSerialTransfers(cfg, mode, xferBytes, transfers)
	})
	r := &Result{
		Preamble: []string{fmt.Sprintf(
			"Serial %d KB transfers over the two-link rig (2 bg TCP flows per link)", xferBytes/1024)},
		Columns: []Column{
			{Name: "transport"}, {Name: "completion", Unit: "s"},
			{Name: "completed"}, {Name: "transfers"},
		},
		Footer: []string{"(expected: streams finish faster by pulling both links' spare capacity)"},
	}
	for _, o := range outs {
		r.Rows = append(r.Rows, []Cell{
			TextCell(o.mode), SummaryCell(o.sum), IntCell(o.sum.N()), IntCell(transfers),
		})
	}
	return r, nil
}

// textExtStreams is the classic serial-transfers table layout (completion
// as mean ± stdev).
func textExtStreams(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-16s | %s\n", "transport", "completion (s)", "completed")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %6.2f ± %-6.2f | %d/%d\n",
			c[0].Text, c[1].Value, c[1].Stdev, c[2].Int(), c[3].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// launchSerial starts `count` back-to-back transfers over the compiled
// two-link rig n, each beginning when the previous completes, reports each
// completion time to completed, and stops the simulation when the last one
// completes. Each transfer gets its own endpoints when the previous one
// finishes, which a Spec's fixed flow list cannot express.
func launchSerial(n *scenario.Net, mode string, size int64, count int, completed func(sim.Time)) {
	s := n.Sim
	// path crosses link l behind a fresh access pipe with the testbed's
	// 40 ms one-way delay.
	path := func(l *scenario.CompiledLink) workload.PathPair {
		trim := netem.NewPipe(s, 40*sim.Millisecond, "trim")
		return workload.PathPair{Fwd: []netem.Node{trim, l.Queue, l.Pipe}, Rev: []netem.Node{n.Rev.Q, n.Rev.P}}
	}
	var startNext func(i int)
	startNext = func(i int) {
		if i >= count {
			s.Stop()
			return
		}
		begin := s.Now()
		done := func() {
			completed(s.Now() - begin)
			startNext(i + 1)
		}
		if mode == "tcp" {
			src, _ := workload.NewBulk(s, 5000+i, "xfer", path(n.Links[0]), tcp.Config{FlowBytes: size})
			src.OnComplete = func(*tcp.Src) { done() }
			src.Start(s.Now())
			return
		}
		conn := workload.NewMultipath(s, fmt.Sprintf("xfer%d", i), core.Controllers["olia"](), tcp.Config{},
			6000+2*i, []workload.PathPair{path(n.Links[0]), path(n.Links[1])})
		// Finite transfers need slow start: the §IV-B ssthresh=1 setting
		// (meant for long-lived flows probing congested paths) would make a
		// 512 KB stream crawl from a 1-packet window in congestion
		// avoidance — ~3x slower than plain TCP. This is why the paper's
		// own short-flow workload uses regular TCP.
		conn.SetKeepSlowStart(true)
		st := mptcp.NewStream(conn, size, 0)
		st.OnComplete = func(*mptcp.Stream) { done() }
		st.Start(s.Now())
	}
	startNext(0)
}

func init() {
	register(&Experiment{
		ID:       "ext-probe",
		PaperRef: "§VII (future work)",
		Title:    "Extension: suspending bad paths cuts probing traffic below 1 MSS/RTT",
		Collect:  extProbe,
		Text:     textExtProbe,
	})
	register(&Experiment{
		ID:       "ext-rwnd",
		PaperRef: "§VII (future work)",
		Title:    "Extension: receive-window limitations bound multipath gains",
		Collect:  extRwnd,
		Text:     textExtRwnd,
	})
	register(&Experiment{
		ID:       "ext-streams",
		PaperRef: "§VII (future work)",
		Title:    "Extension: finite transfers as MPTCP data-level streams vs single-path TCP",
		Collect:  extStreams,
		Text:     textExtStreams,
	})
	register(&Experiment{
		ID:       "ablation-delack",
		PaperRef: "RFC 1122 receivers",
		Title:    "Per-segment vs delayed ACKs under OLIA",
		Collect:  ablationDelack,
		Text:     textAblationDelack,
	})
	register(&Experiment{
		ID:       "ext-rtt",
		PaperRef: "Remark 3",
		Title:    "RTT heterogeneity: TCP-compatible couplings favor the short-RTT path even at equal congestion",
		Collect:  extRTT,
		Text:     textExtRTT,
	})
}

// extRTT probes Remark 3: with equal per-path congestion but different
// RTTs, any TCP-compatible algorithm (whose per-path throughput scales as
// 1/rtt at equal loss) sends more on the short-RTT path; OLIA's ℓ/rtt² best
// metric makes the preference explicit.
func extRTT(cfg Config) (*Result, error) {
	algos := []string{"olia", "lia", "uncoupled"}
	outs := perPoint(cfg, algos, func(algo string) twoLinkOutcome {
		sp := twoLinkSpec(cfg, 5, 5, algo)
		sp.Paths[1].DelayMs = 120 // RTT 240+q vs 80+q ms
		return runTwoLink(cfg, sp)
	})
	r := &Result{
		Preamble: []string{"Two links, equal capacity and background (5 TCP each); path 2 RTT 3x path 1"},
		Columns: []Column{
			{Name: "algorithm"},
			{Name: "mp_short_rtt", Unit: "Mb/s"}, {Name: "mp_long_rtt", Unit: "Mb/s"},
			{Name: "ratio"},
		},
		Footer: []string{"(expected: every algorithm leans to the short-RTT path; the coupled ones more)"},
	}
	for i, algo := range algos {
		o := outs[i]
		ratio := 0.0
		if o.mp2 > 0 {
			ratio = o.mp1 / o.mp2
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(algo), NumCell(o.mp1), NumCell(o.mp2), NumCell(ratio),
		})
	}
	return r, nil
}

// textExtRTT is the classic RTT-heterogeneity table layout.
func textExtRTT(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-12s %-12s | %s\n",
		"algorithm", "mp short-rtt", "mp long-rtt", "ratio")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-12.2f %-12.2f | %.1f\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// delackOutcome is one acknowledgment-policy run on the symmetric rig.
type delackOutcome struct {
	mpMbps, bgMeanMbps float64
}

// runDelack measures the symmetric rig with per-segment or delayed ACKs.
func runDelack(cfg Config, delayed bool) delackOutcome {
	n := compileRig(twoLinkSpec(cfg, 5, 5, "olia"))
	bg, mp := slices.Concat(n.Groups[0], n.Groups[1]), n.Groups[2][0]
	if delayed {
		for _, f := range n.Flows {
			for _, k := range f.Sinks {
				k.SetDelayedAck(40 * sim.Millisecond)
			}
		}
	}
	w, err := n.Measure(cfg.context())
	if err != nil {
		return delackOutcome{} // cancelled: CollectResult discards the collection
	}
	return delackOutcome{
		mpMbps:     w.Mbps(mp),
		bgMeanMbps: w.Mbps(bg...) / float64(len(bg)),
	}
}

// ablationDelack compares per-segment acknowledgments (htsim behavior, the
// default here) with RFC 1122 delayed ACKs on the symmetric rig.
func ablationDelack(cfg Config) (*Result, error) {
	variants := []bool{false, true}
	outs := perPoint(cfg, variants, func(delayed bool) delackOutcome {
		return runDelack(cfg, delayed)
	})
	r := &Result{
		Preamble: []string{"Symmetric rig, OLIA: receiver acknowledgment policy"},
		Columns: []Column{
			{Name: "receiver"},
			{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
		},
	}
	for i, delayed := range variants {
		name := "per-segment ACKs"
		if delayed {
			name = "delayed ACKs (40ms)"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), NumCell(outs[i].mpMbps), NumCell(outs[i].bgMeanMbps),
		})
	}
	return r, nil
}

// textAblationDelack is the classic acknowledgment-policy table layout.
func textAblationDelack(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-10s | %s\n", "receiver", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}
