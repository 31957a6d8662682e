package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/trace"
)

// twoLinkOutcome is the common measurement for the ablation studies: the
// multipath user's split over the two links, the mean background TCP rates,
// and the dominance-flip count (flappiness).
type twoLinkOutcome struct {
	mp1, mp2   float64 // multipath goodput per link, Mb/s
	bg1, bg2   float64 // mean background TCP goodput per link, Mb/s
	flipsCount int
}

// twoLinkSpec is the harness's Fig. 6 rig: 10 Mb/s links with ntcp1 and
// ntcp2 background TCP flows, at the run's base seed and window. Every
// harness variant puts background flows on both links, so the compiled
// groups are always link 1's TCP flows, link 2's, then the multipath user.
func twoLinkSpec(cfg Config, ntcp1, ntcp2 int, algo string) *scenario.Spec {
	return scenario.TwoLink(10, ntcp1, ntcp2, algo, cfg.BaseSeed, cfg.Warmup.Sec(), cfg.Duration.Sec())
}

// twoLinkMP is the multipath user of a TwoLink spec, for variants to edit.
func twoLinkMP(sp *scenario.Spec) *scenario.FlowSpec { return &sp.Flows[len(sp.Flows)-1] }

// runTwoLink simulates one two-link rig configuration — the "one point →
// typed result" unit every ablation fans out over.
func runTwoLink(cfg Config, sp *scenario.Spec) twoLinkOutcome {
	n := compileRig(sp)
	tcp1, tcp2, mp := n.Groups[0], n.Groups[1], n.Groups[2][0]
	stop := cfg.Warmup + cfg.Duration
	rec := trace.NewRecorder(n.Sim, 250*sim.Millisecond, stop,
		trace.Probe{Name: "w1", Fn: func() float64 { return mp.Conn.CwndPkts(0) }},
		trace.Probe{Name: "w2", Fn: func() float64 { return mp.Conn.CwndPkts(1) }},
	)
	rec.Start(0)
	n.Sim.RunUntil(cfg.Warmup)
	subBase := []int64{mp.PathGoodputBytes(0), mp.PathGoodputBytes(1)}
	bgBase := [2]int64{sumGoodput(tcp1), sumGoodput(tcp2)}
	n.Sim.RunUntil(stop)
	secs := cfg.Duration.Sec()
	var out twoLinkOutcome
	out.mp1 = stats.Mbps(mp.PathGoodputBytes(0)-subBase[0], secs)
	out.mp2 = stats.Mbps(mp.PathGoodputBytes(1)-subBase[1], secs)
	out.bg1 = stats.Mbps(sumGoodput(tcp1)-bgBase[0], secs) / float64(len(tcp1))
	out.bg2 = stats.Mbps(sumGoodput(tcp2)-bgBase[1], secs) / float64(len(tcp2))
	out.flipsCount = flips(rec.Series(0), rec.Series(1))
	return out
}

// sumGoodput totals the bytes a set of flows has delivered so far.
func sumGoodput(flows []*scenario.Flow) int64 {
	var total int64
	for _, f := range flows {
		total += f.GoodputBytes()
	}
	return total
}

// ablationEpsilon sweeps the ε-family of §II on the symmetric two-link rig:
// ε=0 (fully coupled, Pareto-optimal but flappy), ε=1 (LIA), OLIA, and ε=2
// (uncoupled, grabs two fair shares).
func ablationEpsilon(cfg Config) (*Result, error) {
	algos := []string{"fullycoupled", "lia", "olia", "uncoupled"}
	outs := perPoint(cfg, algos, func(algo string) twoLinkOutcome {
		return runTwoLink(cfg, twoLinkSpec(cfg, 5, 5, algo))
	})
	r := &Result{
		Preamble: []string{"Symmetric two-link rig (Fig. 6a): 10 Mb/s links, 5 TCP flows each; fair share 1.67 Mb/s"},
		Columns: []Column{
			{Name: "algorithm"},
			{Name: "mp_total", Unit: "Mb/s"}, {Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
			{Name: "tcp_mean", Unit: "Mb/s"}, {Name: "flips"},
		},
		Footer: []string{"(expected: uncoupled ≈ 2 shares; lia/olia ≈ 1 share; fullycoupled flips most)"},
	}
	for i, algo := range algos {
		o := outs[i]
		r.Rows = append(r.Rows, []Cell{
			TextCell(algo),
			NumCell(o.mp1 + o.mp2), NumCell(o.mp1), NumCell(o.mp2),
			NumCell((o.bg1 + o.bg2) / 2), IntCell(o.flipsCount),
		})
	}
	return r, nil
}

// textAblationEpsilon is the classic ε-family table layout.
func textAblationEpsilon(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-9s %-9s %-9s | %-9s | %s\n",
		"algorithm", "mp total", "mp link1", "mp link2", "TCP mean", "w1/w2 flips")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-9.2f %-9.2f %-9.2f | %-9.2f | %d\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value, c[4].Value, c[5].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// ablationQueue reruns the asymmetric rig under RED and DropTail: the
// paper's conclusions do not depend on the queueing discipline (§VI-B
// studies drop-tail in htsim).
func ablationQueue(cfg Config) (*Result, error) {
	type point struct {
		queue scenario.QueueKind
		algo  string
	}
	var pts []point
	for _, queue := range []scenario.QueueKind{scenario.QueueRED, scenario.QueueDropTail} {
		for _, algo := range []string{"lia", "olia"} {
			pts = append(pts, point{queue, algo})
		}
	}
	outs := perPoint(cfg, pts, func(p point) twoLinkOutcome {
		sp := twoLinkSpec(cfg, 5, 10, p.algo)
		for i := range sp.Links {
			sp.Links[i].Queue = p.queue
		}
		return runTwoLink(cfg, sp)
	})
	r := &Result{
		Preamble: []string{"Asymmetric rig (Fig. 6b): link2 shared with 10 TCP flows; congested-path traffic by discipline"},
		Columns: []Column{
			{Name: "queue"}, {Name: "algorithm"},
			{Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
			{Name: "tcp_link2", Unit: "Mb/s"},
		},
		Footer: []string{"(expected: OLIA's link2 traffic stays near the probing floor under both disciplines)"},
	}
	for i, p := range pts {
		kindName := "RED"
		if p.queue == scenario.QueueDropTail {
			kindName = "DropTail"
		}
		o := outs[i]
		r.Rows = append(r.Rows, []Cell{
			TextCell(kindName), TextCell(p.algo),
			NumCell(o.mp1), NumCell(o.mp2), NumCell(o.bg2),
		})
	}
	return r, nil
}

// textAblationQueue is the classic RED-vs-DropTail table layout.
func textAblationQueue(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-10s %-10s | %-10s %-10s | %s\n",
		"queue", "algorithm", "mp link1", "mp link2", "TCP mean on link2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s %-10s | %-10.2f %-10.2f | %.2f\n",
			c[0].Text, c[1].Text, c[2].Value, c[3].Value, c[4].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// ablationSsthresh compares the paper's subflow setting (ssthresh = 1 MSS,
// §IV-B) with normal slow start on the asymmetric rig: slow-starting
// subflows repeatedly blast the congested path.
func ablationSsthresh(cfg Config) (*Result, error) {
	variants := []bool{false, true}
	outs := perPoint(cfg, variants, func(keepSS bool) twoLinkOutcome {
		sp := twoLinkSpec(cfg, 5, 10, "olia")
		twoLinkMP(sp).KeepSlowStart = keepSS
		return runTwoLink(cfg, sp)
	})
	r := &Result{
		Preamble: []string{"Asymmetric rig: effect of the §IV-B subflow ssthresh=1 setting"},
		Columns: []Column{
			{Name: "subflow_start"},
			{Name: "mp_link1", Unit: "Mb/s"}, {Name: "mp_link2", Unit: "Mb/s"},
			{Name: "tcp_link2", Unit: "Mb/s"},
		},
	}
	for i, keepSS := range variants {
		name := "ssthresh=1 (paper)"
		if keepSS {
			name = "normal slow start"
		}
		o := outs[i]
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), NumCell(o.mp1), NumCell(o.mp2), NumCell(o.bg2),
		})
	}
	return r, nil
}

// textAblationSsthresh is the classic ssthresh-ablation table layout.
func textAblationSsthresh(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-22s | %-10s %-10s | %s\n",
		"subflow start", "mp link1", "mp link2", "TCP mean on link2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-22s | %-10.2f %-10.2f | %.2f\n",
			c[0].Text, c[1].Value, c[2].Value, c[3].Value)
	}
	return nil
}

// ablationCap compares OLIA with and without the per-ACK Reno cap (goal 2's
// "never more aggressive than TCP on any path").
func ablationCap(cfg Config) (*Result, error) {
	variants := []bool{false, true}
	outs := perPoint(cfg, variants, func(noCap bool) twoLinkOutcome {
		sp := twoLinkSpec(cfg, 5, 5, "olia")
		twoLinkMP(sp).NoIncreaseCap = noCap
		return runTwoLink(cfg, sp)
	})
	r := &Result{
		Preamble: []string{"Symmetric rig: effect of the per-ACK increase cap (RFC 6356 goal 2)"},
		Columns: []Column{
			{Name: "increase_cap"},
			{Name: "mp_total", Unit: "Mb/s"}, {Name: "tcp_mean", Unit: "Mb/s"},
		},
	}
	for i, noCap := range variants {
		name := "capped (std)"
		if noCap {
			name = "uncapped"
		}
		o := outs[i]
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), NumCell(o.mp1 + o.mp2), NumCell((o.bg1 + o.bg2) / 2),
		})
	}
	return r, nil
}

// textAblationCap is the classic increase-cap table layout.
func textAblationCap(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s | %-10s | %s\n", "increase cap", "mp total", "TCP mean")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-14s | %-10.2f | %.2f\n", c[0].Text, c[1].Value, c[2].Value)
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "ablation-epsilon",
		PaperRef: "§II design space",
		Title:    "ε-family sweep: fully coupled (ε=0) vs LIA (ε=1) vs OLIA vs uncoupled (ε=2) on symmetric links",
		Collect:  ablationEpsilon,
		Text:     textAblationEpsilon,
	})
	register(&Experiment{
		ID:       "ablation-queue",
		PaperRef: "§III / §VI-B queueing",
		Title:    "RED vs DropTail bottlenecks: OLIA's congestion balancing holds under both disciplines",
		Collect:  ablationQueue,
		Text:     textAblationQueue,
	})
	register(&Experiment{
		ID:       "ablation-ssthresh",
		PaperRef: "§IV-B",
		Title:    "Subflow ssthresh=1 vs normal slow start on a congested path",
		Collect:  ablationSsthresh,
		Text:     textAblationSsthresh,
	})
	register(&Experiment{
		ID:       "ablation-cap",
		PaperRef: "RFC 6356 goal 2",
		Title:    "Per-ACK increase cap on vs off",
		Collect:  ablationCap,
		Text:     textAblationCap,
	})
}
