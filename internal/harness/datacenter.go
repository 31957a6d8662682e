package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/core"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/workload"
)

// hostFlow abstracts "one host's long-lived transfer" across TCP and MPTCP.
type hostFlow interface {
	Goodput() int64
}

type tcpFlow struct{ sink *tcp.Sink }

func (f tcpFlow) Goodput() int64 { return f.sink.GoodputBytes() }

type mpFlow struct{ conn *mptcp.Conn }

func (f mpFlow) Goodput() int64 { return f.conn.GoodputBytes() }

// launchLongFlow starts host src's long-lived flow to dst using the given
// algorithm ("tcp" or a core.Controllers key) with nsub subflows.
func launchLongFlow(ft *topo.FatTree, src, dst int, algo string, nsub, flowID int) hostFlow {
	rng := ft.S.Rand()
	if algo == "tcp" {
		choice := ft.PickPaths(rng, src, dst, 1)[0]
		s, sink := workload.NewBulk(ft.S, flowID, fmt.Sprintf("h%d", src), ft.Path(src, dst, choice), tcp.Config{})
		s.Start(sim.RandBelow(rng, 100*sim.Millisecond))
		return tcpFlow{sink}
	}
	conn := mptcp.New(ft.S, fmt.Sprintf("h%d", src), core.Controllers[algo](), tcp.Config{})
	// The paper's data-center runs use htsim, whose subflows slow-start
	// normally (the ssthresh=1 setting of §IV-B is the Linux testbed
	// implementation).
	conn.SetKeepSlowStart(true)
	for i, choice := range ft.PickPaths(rng, src, dst, nsub) {
		sf := conn.AddSubflow(flowID + i)
		pp := ft.Path(src, dst, choice)
		sf.SetRoutes(
			netem.NewRoute(pp.Fwd...).Append(sf.Sink),
			netem.NewRoute(pp.Rev...).Append(sf.Src),
		)
	}
	conn.Start(sim.RandBelow(rng, 100*sim.Millisecond))
	return mpFlow{conn}
}

// dcThroughput runs the §VI-B1 experiment at point p: every host sends one
// long-lived flow to a random other host (derangement); reports each flow's
// goodput as a percentage of the optimal (line rate).
func dcThroughput(cfg Config, p dcPoint, seed int64) []float64 {
	ft := topo.NewFatTree(topo.FatTreeConfig{K: cfg.FatTreeK, Seed: seed})
	n := ft.NumHosts()
	perm := workload.Permutation(ft.S.Rand(), n)
	flows := make([]hostFlow, n)
	for i := 0; i < n; i++ {
		flows[i] = launchLongFlow(ft, i, perm[i], p.algo, p.nsub, 10_000+100*i)
	}
	ft.S.RunUntil(cfg.DCWarmup)
	base := make([]int64, n)
	for i, f := range flows {
		base[i] = f.Goodput()
	}
	ft.S.RunUntil(cfg.DCWarmup + cfg.DCDuration)
	secs := cfg.DCDuration.Sec()
	optimal := float64(ft.Cfg.LinkRateBps) / 1e6
	out := make([]float64, n)
	for i, f := range flows {
		out[i] = stats.Mbps(f.Goodput()-base[i], secs) / optimal * 100
	}
	return out
}

// dcPoint identifies one FatTree long-flow configuration.
type dcPoint struct {
	algo string
	nsub int
}

// dcAggregate is the seed-averaged aggregate throughput at one point.
type dcAggregate struct {
	point dcPoint
	agg   stats.Summary // per-seed mean of per-flow %-of-optimal
}

// dcThroughputRuns is the run family behind Figs. 13(a) and 13(b): Fig.
// 13(b) plots the per-flow vectors of Fig. 13(a)'s base-seed runs.
var dcThroughputRuns = &runFamily[dcPoint, []float64]{run: dcThroughput}

// collectDCThroughput fans the §VI-B1 grid out on the worker pool: one job
// per (point × seed), each per-flow vector reduced to its mean in the
// merge; per-seed means merge in seed order.
func collectDCThroughput(cfg Config, pts []dcPoint) []dcAggregate {
	per := dcThroughputRuns.sweep(cfg, pts)
	out := make([]dcAggregate, len(pts))
	for i, p := range pts {
		out[i].point = p
		for _, flows := range per[i] {
			var sum stats.Summary
			for _, v := range flows {
				sum.Add(v)
			}
			out[i].agg.Add(sum.Mean())
		}
	}
	return out
}

// fig13a collects aggregate throughput (% of optimal) vs number of
// subflows for LIA, OLIA and single-path TCP.
func fig13a(cfg Config) (*Result, error) {
	pts := []dcPoint{{"tcp", 1}}
	for _, nsub := range cfg.Subflows {
		pts = append(pts, dcPoint{"lia", nsub}, dcPoint{"olia", nsub})
	}
	res := collectDCThroughput(cfg, pts)

	r := &Result{
		Preamble: []string{fmt.Sprintf("FatTree K=%d (%d hosts), random permutation, long-lived flows",
			cfg.FatTreeK, cfg.FatTreeK*cfg.FatTreeK*cfg.FatTreeK/4)},
		Columns: []Column{
			{Name: "subflows"},
			{Name: "lia", Unit: "% of optimal"}, {Name: "olia", Unit: "% of optimal"},
			{Name: "tcp", Unit: "% of optimal"},
		},
	}
	tcpAgg := res[0].agg
	for i, nsub := range cfg.Subflows {
		r.Rows = append(r.Rows, []Cell{
			IntCell(nsub),
			SummaryCell(res[1+2*i].agg), SummaryCell(res[2+2*i].agg), SummaryCell(tcpAgg),
		})
	}
	return r, nil
}

// textFig13a is the classic Fig. 13(a) layout.
func textFig13a(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-9s | %s\n", "subflows", "aggregate throughput (% of optimal)")
	fmt.Fprintf(w, "%-9s | %-12s %-12s %-12s\n", "", "MPTCP-LIA", "MPTCP-OLIA", "TCP")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-9d | %5.1f±%-5.1f %5.1f±%-5.1f %5.1f±%-5.1f\n",
			c[0].Int(), c[1].Value, c[1].CI95, c[2].Value, c[2].CI95, c[3].Value, c[3].CI95)
	}
	return nil
}

// fig13bQuantiles are the ranked-distribution percentiles of Fig. 13(b).
var fig13bQuantiles = []float64{0, 10, 25, 50, 75, 90, 100}

// fig13b collects the ranked per-flow throughput distribution at the
// maximum subflow count (the paper uses 8).
func fig13b(cfg Config) (*Result, error) {
	nsub := cfg.Subflows[len(cfg.Subflows)-1]
	pts := []dcPoint{{"lia", nsub}, {"olia", nsub}, {"tcp", 1}}
	// One repetition at the base seed, as in the paper's ranked plot.
	perFlow := dcThroughputRuns.runs(cfg, len(pts), func(i int) (dcPoint, int64) {
		return pts[i], cfg.BaseSeed
	})

	r := &Result{
		Preamble: []string{fmt.Sprintf("FatTree K=%d, per-flow throughput percentiles (%% of optimal), %d subflows",
			cfg.FatTreeK, nsub)},
		Columns: []Column{{Name: "algo"}},
	}
	for _, q := range fig13bQuantiles {
		r.Columns = append(r.Columns, Column{Name: fmt.Sprintf("p%.0f", q), Unit: "% of optimal"})
	}
	for i, p := range pts {
		cells := []Cell{TextCell(p.algo)}
		for _, q := range fig13bQuantiles {
			cells = append(cells, NumCell(stats.Percentile(perFlow[i], q)))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textFig13b is the classic Fig. 13(b) layout.
func textFig13b(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-10s |", "algo")
	for _, q := range fig13bQuantiles {
		fmt.Fprintf(w, " p%-5.0f", q)
	}
	fmt.Fprintln(w)
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s |", c[0].Text)
		for i := range fig13bQuantiles {
			fmt.Fprintf(w, " %-6.1f", c[1+i].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// shortFlowResult aggregates one §VI-B2 run.
type shortFlowResult struct {
	completions []float64 // seconds
	coreUtilPct float64
}

// dcShortFlows runs the §VI-B2 experiment on the 4:1 oversubscribed fabric:
// one third of the hosts run long-lived flows (TCP or 8-subflow MPTCP); the
// rest send 70 KB TCP flows with Poisson 200 ms mean spacing.
func dcShortFlows(cfg Config, algo string, seed int64) shortFlowResult {
	ft := topo.NewFatTree(topo.FatTreeConfig{
		K: cfg.FatTreeK, Oversubscription: 4, Seed: seed,
	})
	n := ft.NumHosts()
	perm := workload.Permutation(ft.S.Rand(), n)
	nsub := cfg.Subflows[len(cfg.Subflows)-1]
	var gens []*workload.ShortFlows
	stop := cfg.DCWarmup + cfg.DCDuration
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			launchLongFlow(ft, i, perm[i], algo, nsub, 10_000+100*i)
			continue
		}
		choice := ft.PickPaths(ft.S.Rand(), i, perm[i], 1)[0]
		g := workload.NewShortFlows(ft.S, 100_000+1000*i, ft.Path(i, perm[i], choice),
			70_000, 200*sim.Millisecond, stop, tcp.Config{})
		g.Start(cfg.DCWarmup + sim.RandBelow(ft.S.Rand(), 200*sim.Millisecond))
		gens = append(gens, g)
	}
	ft.S.RunUntil(cfg.DCWarmup)
	coreBase := int64(0)
	core := ft.CoreLinks()
	for _, l := range core {
		coreBase += l.Q.Stats().SentBytes
	}
	ft.S.RunUntil(stop + 2*sim.Second) // drain tail completions
	var coreBytes int64
	for _, l := range core {
		coreBytes += l.Q.Stats().SentBytes
	}
	coreBytes -= coreBase
	secs := (cfg.DCDuration + 2*sim.Second).Sec()
	capacity := float64(len(core)) * float64(ft.Cfg.LinkRateBps) / 8 * secs
	res := shortFlowResult{coreUtilPct: float64(coreBytes) / capacity * 100}
	for _, g := range gens {
		res.completions = append(res.completions, g.Done...)
	}
	return res
}

// dcShortAlgos is the §VI-B2 comparison set, in table order.
var dcShortAlgos = []string{"lia", "olia", "tcp"}

// dcShortFlowRuns is the run family behind Fig. 14 and Table III, two views
// of the same short-flow runs.
var dcShortFlowRuns = &runFamily[string, shortFlowResult]{run: dcShortFlows}

// collectDCShortFlows runs the short-flow experiment for every algorithm,
// one pool job per (algorithm × seed), returning per-seed results in seed
// order per algorithm.
func collectDCShortFlows(cfg Config) [][]shortFlowResult {
	return dcShortFlowRuns.sweep(cfg, dcShortAlgos)
}

// table3 collects short-flow completion statistics and core utilization.
func table3(cfg Config) (*Result, error) {
	res := collectDCShortFlows(cfg)
	r := &Result{
		Preamble: []string{fmt.Sprintf(
			"4:1 oversubscribed FatTree K=%d; 1/3 hosts long flows, rest 70KB shorts every 200ms", cfg.FatTreeK)},
		Columns: []Column{
			{Name: "algorithm"}, {Name: "finish", Unit: "ms"},
			{Name: "core_util", Unit: "%"}, {Name: "flows"},
		},
		Footer: []string{"(paper: LIA 98±57 ms / 63.2%; OLIA 90±42 ms / 63%; TCP 73±57 ms / 39.3%)"},
	}
	for i, algo := range dcShortAlgos {
		var sum stats.Summary
		var util stats.Summary
		var count int
		for _, sr := range res[i] {
			for _, c := range sr.completions {
				sum.Add(c * 1000)
			}
			util.Add(sr.coreUtilPct)
			count += len(sr.completions)
		}
		name := "MPTCP-" + algo
		if algo == "tcp" {
			name = "TCP"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(name), SummaryCell(sum), SummaryCell(util), IntCell(count),
		})
	}
	return r, nil
}

// textTable3 is the classic Table III layout (finish times as mean ± stdev,
// as the paper reports them).
func textTable3(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-12s | %-22s | %-10s | %s\n", "algorithm", "short-flow finish (ms)", "core util", "flows")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %6.0f ± %-6.0f        | %5.1f%%     | %d\n",
			c[0].Text, c[1].Value, c[1].Stdev, c[2].Value, c[3].Int())
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// fig14Buckets is the completion-time histogram shape: 20 ms buckets over
// 0–300 ms.
const fig14Buckets = 15

// fig14 collects the completion-time PDFs.
func fig14(cfg Config) (*Result, error) {
	res := collectDCShortFlows(cfg)
	r := &Result{
		Preamble: []string{"Short-flow completion-time PDF (1/s), buckets of 20 ms over 0-300 ms"},
		Columns:  []Column{{Name: "algo"}},
	}
	for b := 0; b < fig14Buckets; b++ {
		r.Columns = append(r.Columns, Column{Name: fmt.Sprintf("p_%dms", b*20+10), Unit: "1/s"})
	}
	for i, algo := range dcShortAlgos {
		h := stats.NewHistogram(0, 0.3, fig14Buckets)
		for _, sr := range res[i] {
			for _, c := range sr.completions {
				h.Add(c)
			}
		}
		cells := []Cell{TextCell(algo)}
		for _, d := range h.PDF() {
			cells = append(cells, NumCell(d))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textFig14 is the classic Fig. 14 layout.
func textFig14(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-10s |", "ms")
	for b := 0; b < fig14Buckets; b++ {
		fmt.Fprintf(w, " %5d", b*20+10)
	}
	fmt.Fprintln(w)
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-10s |", c[0].Text)
		for b := 0; b < fig14Buckets; b++ {
			fmt.Fprintf(w, " %5.2f", c[1+b].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func init() {
	register(&Experiment{
		ID:       "fig13a",
		PaperRef: "Figure 13(a)",
		Title:    "FatTree aggregate throughput vs number of subflows: MPTCP (either coupling) exploits path diversity, TCP cannot",
		Collect:  fig13a,
		Text:     textFig13a,
	})
	register(&Experiment{
		ID:       "fig13b",
		PaperRef: "Figure 13(b)",
		Title:    "FatTree ranked per-flow throughput: LIA and OLIA provide similar fairness, far above TCP",
		Collect:  fig13b,
		Text:     textFig13b,
	})
	register(&Experiment{
		ID:       "fig14",
		PaperRef: "Figure 14",
		Title:    "Short-flow completion-time PDF in a dynamic oversubscribed fabric: OLIA shifts mass to faster completions than LIA",
		Collect:  fig14,
		Text:     textFig14,
	})
	register(&Experiment{
		ID:       "table3",
		PaperRef: "Table III",
		Title:    "Short-flow completion times and core utilization: OLIA ≈10% faster mean than LIA at equal utilization",
		Collect:  table3,
		Text:     textTable3,
	})
}
