package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/fixedpoint"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// lossWindow measures a queue's loss probability over [warmup, end].
type lossWindow struct {
	q    netem.Queue
	base netem.Counters
}

func snapLoss(q netem.Queue) *lossWindow { return &lossWindow{q: q, base: q.Stats()} }

func (lw *lossWindow) prob() float64 { return lw.q.Stats().Sub(lw.base).LossProb() }

// compileRig builds one of the harness's testbed rigs. The harness passes
// the spec builders fixed, valid parameters, so an error is a bug.
func compileRig(sp *scenario.Spec) *scenario.Net {
	n, err := scenario.Compile(sp)
	if err != nil {
		panic(fmt.Sprintf("harness: %s spec invalid: %v", sp.Name, err))
	}
	return n
}

// goodputs snapshots the bytes each flow has delivered so far.
func goodputs(flows []*scenario.Flow) []int64 {
	out := make([]int64, len(flows))
	for i, f := range flows {
		out[i] = f.GoodputBytes()
	}
	return out
}

// aMetrics are the Scenario A observables of Figs. 1, 9 and 10 from one
// simulation run.
type aMetrics struct {
	t1Norm, t2Norm, p1, p2 float64
}

// runScenarioA executes one Scenario A simulation at sweep cell p (N1 =
// p.n1 type1 users at C1 = p.c1 Mb/s each, N2 = 10 type2 users at C2 =
// 1 Mb/s) and reports normalized throughputs and loss probabilities over
// the measurement window.
func runScenarioA(cfg Config, p aPoint, seed int64) aMetrics {
	const n2, c2 = 10, 1.0
	n := compileRig(scenario.PaperScenarioA(
		p.n1, n2, p.c1, c2, p.algo, seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	n.Sim.RunUntil(cfg.Warmup)
	type1, type2 := n.Groups[0], n.Groups[1]
	t1Base, t2Base := goodputs(type1), goodputs(type2)
	l1, l2 := snapLoss(n.Links[0].Queue), snapLoss(n.Links[1].Queue)
	n.Sim.RunUntil(cfg.Warmup + cfg.Duration)
	secs := cfg.Duration.Sec()
	var m aMetrics
	for i, f := range type1 {
		m.t1Norm += stats.Mbps(f.GoodputBytes()-t1Base[i], secs) / p.c1 / float64(p.n1)
	}
	for i, f := range type2 {
		m.t2Norm += stats.Mbps(f.GoodputBytes()-t2Base[i], secs) / c2 / float64(n2)
	}
	m.p1, m.p2 = l1.prob(), l2.prob()
	return m
}

// scenarioASweep is the grid of Figs. 1(b,c), 9 and 10: N2 = 10 users,
// N1/N2 ∈ {1,2,3}, C2 = 1 Mb/s, C1/C2 ∈ {0.75, 1, 1.5}.
var scenarioASweep = struct {
	n1s []int
	c1s []float64
}{[]int{10, 20, 30}, []float64{0.75, 1.0, 1.5}}

// aPoint identifies one Scenario A sweep cell: a capacity ratio, a user
// count, and the algorithm under test.
type aPoint struct {
	c1   float64
	n1   int
	algo string
}

// aResult is the seed-averaged outcome at one sweep cell — the typed form
// of one table row.
type aResult struct {
	point          aPoint
	t1, t2, p1, p2 stats.Summary
}

// scenarioARuns is the run family behind Figs. 1(b,c), 9 and 10: the four
// figures are views of one LIA+OLIA sweep, so under RunAll each cell and
// seed simulates once for all of them.
var scenarioARuns = &runFamily[aPoint, aMetrics]{run: runScenarioA}

// collectScenarioA simulates the Figs. 1/9/10 grid for the given
// algorithms. Every (cell × seed) run is an independent job on the worker
// pool; per-seed metrics merge in seed order, so the result is identical
// for any worker count.
func collectScenarioA(cfg Config, algos []string) []aResult {
	var pts []aPoint
	for _, c1 := range scenarioASweep.c1s {
		for _, n1 := range scenarioASweep.n1s {
			for _, algo := range algos {
				pts = append(pts, aPoint{c1, n1, algo})
			}
		}
	}
	per := scenarioARuns.sweep(cfg, pts)
	out := make([]aResult, len(pts))
	for i, p := range pts {
		out[i].point = p
		for _, m := range per[i] {
			out[i].t1.Add(m.t1Norm)
			out[i].t2.Add(m.t2Norm)
			out[i].p1.Add(m.p1)
			out[i].p2.Add(m.p2)
		}
	}
	return out
}

// resultScenarioA structures collected results, one row per sweep cell,
// with the analytic fixed point and the optimum-with-probing alongside.
func resultScenarioA(res []aResult, withLoss bool) (*Result, error) {
	r := &Result{Columns: []Column{
		{Name: "c1_over_c2"}, {Name: "n1_over_n2"}, {Name: "algo"},
		{Name: "t1", Unit: "norm"}, {Name: "t2", Unit: "norm"},
		{Name: "analytic_t1", Unit: "norm"}, {Name: "analytic_t2", Unit: "norm"},
		{Name: "optimum_t1", Unit: "norm"}, {Name: "optimum_t2", Unit: "norm"},
	}}
	if withLoss {
		r.Columns = append(r.Columns,
			Column{Name: "p1"}, Column{Name: "p2"},
			Column{Name: "analytic_p1"}, Column{Name: "analytic_p2"})
	}
	for _, row := range res {
		ana, err := fixedpoint.ScenarioALIA(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.DefaultParams)
		if err != nil {
			return nil, err
		}
		opt := fixedpoint.ScenarioAOptimum(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.DefaultParams)
		cells := []Cell{
			NumCell(row.point.c1), NumCell(float64(row.point.n1) / 10), TextCell(row.point.algo),
			SummaryCell(row.t1), SummaryCell(row.t2),
			NumCell(ana.Type1Norm), NumCell(ana.Type2Norm),
			NumCell(opt.Type1Norm), NumCell(opt.Type2Norm),
		}
		if withLoss {
			cells = append(cells,
				SummaryCell(row.p1), SummaryCell(row.p2), NumCell(ana.P1), NumCell(ana.P2))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textScenarioA is the classic Figs. 1/9/10 table layout; the loss columns
// print when the Result carries them.
func textScenarioA(r *Result, w io.Writer) error {
	withLoss := len(r.Columns) > 9
	fmt.Fprintf(w, "%-6s %-5s %-6s | %-28s | %-18s | %s\n",
		"C1/C2", "N1/N2", "algo", "measured t1 / t2 (norm)", "analytic t1 / t2", "optimum t1 / t2")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %-5.1f %-6s | %6.3f±%.3f / %6.3f±%.3f | %8.3f / %8.3f | %6.3f / %6.3f",
			c[0].Value, c[1].Value, c[2].Text,
			c[3].Value, c[3].CI95, c[4].Value, c[4].CI95,
			c[5].Value, c[6].Value, c[7].Value, c[8].Value)
		if withLoss {
			fmt.Fprintf(w, " | p1=%.4f±%.4f p2=%.4f±%.4f (analytic p1=%.4f p2=%.4f)",
				c[9].Value, c[9].CI95, c[10].Value, c[10].CI95, c[11].Value, c[12].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func scenarioAExperiment(algos []string, withLoss bool) func(cfg Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		return resultScenarioA(collectScenarioA(cfg, algos), withLoss)
	}
}

// cMetrics are the Scenario C observables of Figs. 5, 11 and 12 from one
// simulation run.
type cMetrics struct {
	multiNorm, singleNorm, p1, p2 float64
}

// runScenarioC executes one Scenario C simulation at sweep cell p: N1 =
// p.n1 multipath users at C1 = p.c1 Mb/s beside N2 = 10 single-path users
// at C2 = 1 Mb/s.
func runScenarioC(cfg Config, p cPoint, seed int64) cMetrics {
	const n2, c2 = 10, 1.0
	n := compileRig(scenario.PaperScenarioC(
		p.n1, n2, p.c1, c2, p.algo, seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	n.Sim.RunUntil(cfg.Warmup)
	multi, single := n.Groups[0], n.Groups[1]
	mBase, sBase := goodputs(multi), goodputs(single)
	l1, l2 := snapLoss(n.Links[0].Queue), snapLoss(n.Links[1].Queue)
	n.Sim.RunUntil(cfg.Warmup + cfg.Duration)
	secs := cfg.Duration.Sec()
	var m cMetrics
	for i, f := range multi {
		m.multiNorm += stats.Mbps(f.GoodputBytes()-mBase[i], secs) / p.c1 / float64(p.n1)
	}
	for i, f := range single {
		m.singleNorm += stats.Mbps(f.GoodputBytes()-sBase[i], secs) / c2 / float64(n2)
	}
	m.p1, m.p2 = l1.prob(), l2.prob()
	return m
}

// scenarioCSweep is the grid of Figs. 5(c,d), 11 and 12: N2 = 10,
// N1 ∈ {5,10,20,30}, C2 = 1 Mb/s, C1/C2 ∈ {1, 2}.
var scenarioCSweep = struct {
	n1s []int
	c1s []float64
}{[]int{5, 10, 20, 30}, []float64{1.0, 2.0}}

// cPoint identifies one Scenario C sweep cell.
type cPoint struct {
	c1   float64
	n1   int
	algo string
}

// cResult is the seed-averaged outcome at one Scenario C cell.
type cResult struct {
	point                 cPoint
	multi, single, p1, p2 stats.Summary
}

// scenarioCRuns is the run family behind Figs. 5(c,d), 11 and 12, shared
// the way scenarioARuns is.
var scenarioCRuns = &runFamily[cPoint, cMetrics]{run: runScenarioC}

// collectScenarioC simulates the Figs. 5/11/12 grid for the given
// algorithms, one pool job per (cell × seed).
func collectScenarioC(cfg Config, algos []string) []cResult {
	var pts []cPoint
	for _, c1 := range scenarioCSweep.c1s {
		for _, n1 := range scenarioCSweep.n1s {
			for _, algo := range algos {
				pts = append(pts, cPoint{c1, n1, algo})
			}
		}
	}
	per := scenarioCRuns.sweep(cfg, pts)
	out := make([]cResult, len(pts))
	for i, p := range pts {
		out[i].point = p
		for _, m := range per[i] {
			out[i].multi.Add(m.multiNorm)
			out[i].single.Add(m.singleNorm)
			out[i].p1.Add(m.p1)
			out[i].p2.Add(m.p2)
		}
	}
	return out
}

// resultScenarioC structures collected Scenario C results.
func resultScenarioC(res []cResult, withLoss bool) (*Result, error) {
	r := &Result{Columns: []Column{
		{Name: "c1_over_c2"}, {Name: "n1_over_n2"}, {Name: "algo"},
		{Name: "multi", Unit: "norm"}, {Name: "single", Unit: "norm"},
		{Name: "analytic_multi", Unit: "norm"}, {Name: "analytic_single", Unit: "norm"},
		{Name: "optimum_multi", Unit: "norm"}, {Name: "optimum_single", Unit: "norm"},
	}}
	if withLoss {
		r.Columns = append(r.Columns,
			Column{Name: "p1"}, Column{Name: "p2"}, Column{Name: "analytic_p2"})
	}
	for _, row := range res {
		ana, err := fixedpoint.ScenarioCLIA(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.DefaultParams)
		if err != nil {
			return nil, err
		}
		opt := fixedpoint.ScenarioCOptimum(float64(row.point.n1), 10, row.point.c1, 1.0, fixedpoint.DefaultParams)
		cells := []Cell{
			NumCell(row.point.c1), NumCell(float64(row.point.n1) / 10), TextCell(row.point.algo),
			SummaryCell(row.multi), SummaryCell(row.single),
			NumCell(ana.MultiNorm), NumCell(ana.SingleNorm),
			NumCell(opt.MultiNorm), NumCell(opt.SingleNorm),
		}
		if withLoss {
			cells = append(cells, SummaryCell(row.p1), SummaryCell(row.p2), NumCell(ana.P2))
		}
		r.Rows = append(r.Rows, cells)
	}
	return r, nil
}

// textScenarioC is the classic Figs. 5/11/12 table layout.
func textScenarioC(r *Result, w io.Writer) error {
	withLoss := len(r.Columns) > 9
	fmt.Fprintf(w, "%-6s %-5s %-6s | %-30s | %-18s | %s\n",
		"C1/C2", "N1/N2", "algo", "measured multi / single (norm)", "analytic (LIA)", "optimum multi / single")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-6.2f %-5.1f %-6s | %7.3f±%.3f / %7.3f±%.3f | %8.3f / %8.3f | %6.3f / %6.3f",
			c[0].Value, c[1].Value, c[2].Text,
			c[3].Value, c[3].CI95, c[4].Value, c[4].CI95,
			c[5].Value, c[6].Value, c[7].Value, c[8].Value)
		if withLoss {
			fmt.Fprintf(w, " | p1=%.4f±%.4f p2=%.4f±%.4f (analytic p2=%.4f)",
				c[9].Value, c[9].CI95, c[10].Value, c[10].CI95, c[11].Value)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func scenarioCExperiment(algos []string, withLoss bool) func(cfg Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		return resultScenarioC(collectScenarioC(cfg, algos), withLoss)
	}
}

// bMetrics are the Scenario B observables of Tables I and II from one
// simulation run.
type bMetrics struct {
	bluePerUser, redPerUser, aggregate float64
}

// runScenarioB executes one Scenario B simulation of Tables I/II: N = 15
// users of each color, CX = 27 and CT = 36 Mb/s, with the Red users on a
// single path or upgraded to multipath.
func runScenarioB(cfg Config, algo string, redMultipath bool, seed int64) bMetrics {
	const n = 15
	net := compileRig(scenario.PaperScenarioB(
		n, 27, 36, algo, redMultipath, seed, cfg.Warmup.Sec(), cfg.Duration.Sec()))
	net.Sim.RunUntil(cfg.Warmup)
	blue, red := net.Groups[0], net.Groups[1]
	blueBase, redBase := goodputs(blue), goodputs(red)
	net.Sim.RunUntil(cfg.Warmup + cfg.Duration)
	secs := cfg.Duration.Sec()
	var m bMetrics
	for i, f := range blue {
		m.bluePerUser += stats.Mbps(f.GoodputBytes()-blueBase[i], secs) / n
	}
	for i, f := range red {
		m.redPerUser += stats.Mbps(f.GoodputBytes()-redBase[i], secs) / n
	}
	m.aggregate = n * (m.bluePerUser + m.redPerUser)
	return m
}

// bResult is the seed-averaged Scenario B outcome for one Red-user mode
// (single-path or multipath).
type bResult struct {
	multipath      bool
	blue, red, agg stats.Summary
}

// collectScenarioB simulates both Red-user modes for one algorithm, one
// pool job per (mode × seed).
func collectScenarioB(cfg Config, algo string) []bResult {
	modes := []bool{false, true}
	per := sweep(cfg, modes, func(mp bool, seed int64) bMetrics {
		return runScenarioB(cfg, algo, mp, seed)
	})
	out := make([]bResult, len(modes))
	for i, mp := range modes {
		out[i].multipath = mp
		for _, m := range per[i] {
			out[i].blue.Add(m.bluePerUser)
			out[i].red.Add(m.redPerUser)
			out[i].agg.Add(m.aggregate)
		}
	}
	return out
}

// resultTableB structures a Table I / Table II comparison from collected
// results: Red single-path vs Red multipath, with the LIA fixed point.
func resultTableB(algo string, res []bResult) (*Result, error) {
	r := &Result{
		Preamble: []string{fmt.Sprintf("Scenario B, %s: CX=27, CT=36, 15+15 users (cut-set bound 63 Mb/s)", algo)},
		Columns: []Column{
			{Name: "red_users"},
			{Name: "blue", Unit: "Mb/s"}, {Name: "red", Unit: "Mb/s"}, {Name: "agg", Unit: "Mb/s"},
			{Name: "analytic_agg", Unit: "Mb/s"},
		},
	}
	var aggVals [2]float64
	for i, row := range res {
		ana, err := fixedpoint.ScenarioBLIA(15, 27, 36, row.multipath, fixedpoint.DefaultParams)
		if err != nil {
			return nil, err
		}
		mode := "Single-path"
		if row.multipath {
			mode = "Multipath"
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(mode),
			SummaryCell(row.blue), SummaryCell(row.red), SummaryCell(row.agg),
			NumCell(ana.Aggregate),
		})
		aggVals[i] = row.agg.Mean()
	}
	drop := (aggVals[0] - aggVals[1]) / aggVals[0] * 100
	r.Footer = []string{fmt.Sprintf(
		"aggregate change on upgrade: %+.1f%% (paper: −13%% for LIA, −3.5%% for OLIA)", -drop)}
	return r, nil
}

// textTableB is the classic Table I / Table II layout.
func textTableB(r *Result, w io.Writer) error {
	for _, line := range r.Preamble {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-12s | %-12s %-12s %-12s | %s\n",
		"Red users", "Blue (Mb/s)", "Red (Mb/s)", "Agg (Mb/s)", "analytic agg (LIA fixed point)")
	for _, c := range r.Rows {
		fmt.Fprintf(w, "%-12s | %5.1f±%.1f    %5.1f±%.1f    %5.1f±%.1f   | %.1f\n",
			c[0].Text, c[1].Value, c[1].CI95, c[2].Value, c[2].CI95,
			c[3].Value, c[3].CI95, c[4].Value)
	}
	for _, line := range r.Footer {
		fmt.Fprintln(w, line)
	}
	return nil
}

// tableBExperiment reproduces Table I / Table II for one algorithm.
func tableBExperiment(algo string) func(cfg Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		return resultTableB(algo, collectScenarioB(cfg, algo))
	}
}

func init() {
	register(&Experiment{
		ID:       "fig1b",
		PaperRef: "Figure 1(b)",
		Title:    "Scenario A: normalized throughput of type1/type2 users under LIA vs analytic fixed point and optimum with probing cost",
		Collect:  scenarioAExperiment([]string{"lia"}, false),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "fig1c",
		PaperRef: "Figure 1(c)",
		Title:    "Scenario A: loss probability p2 at the shared AP under LIA",
		Collect:  scenarioAExperiment([]string{"lia"}, true),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "table1",
		PaperRef: "Table I",
		Title:    "Scenario B measurements with LIA: upgrading Red users reduces everyone's throughput (problem P1)",
		Collect:  tableBExperiment("lia"),
		Text:     textTableB,
	})
	register(&Experiment{
		ID:       "fig5c",
		PaperRef: "Figure 5(c)",
		Title:    "Scenario C: normalized throughputs under LIA vs analysis (problem P2: aggressiveness toward TCP users)",
		Collect:  scenarioCExperiment([]string{"lia"}, false),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig5d",
		PaperRef: "Figure 5(d)",
		Title:    "Scenario C: loss probability p2 at AP2 under LIA",
		Collect:  scenarioCExperiment([]string{"lia"}, true),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig9",
		PaperRef: "Figure 9",
		Title:    "Scenario A: OLIA vs LIA normalized throughputs (OLIA approaches the optimum with probing cost)",
		Collect:  scenarioAExperiment([]string{"lia", "olia"}, false),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "fig10",
		PaperRef: "Figure 10",
		Title:    "Scenario A: loss probability p2, OLIA vs LIA (OLIA balances congestion)",
		Collect:  scenarioAExperiment([]string{"lia", "olia"}, true),
		Text:     textScenarioA,
	})
	register(&Experiment{
		ID:       "table2",
		PaperRef: "Table II",
		Title:    "Scenario B measurements with OLIA: upgrade penalty shrinks to the probing cost",
		Collect:  tableBExperiment("olia"),
		Text:     textTableB,
	})
	register(&Experiment{
		ID:       "fig11",
		PaperRef: "Figure 11",
		Title:    "Scenario C: OLIA vs LIA normalized throughputs",
		Collect:  scenarioCExperiment([]string{"lia", "olia"}, false),
		Text:     textScenarioC,
	})
	register(&Experiment{
		ID:       "fig12",
		PaperRef: "Figure 12",
		Title:    "Scenario C: loss probability p2, OLIA vs LIA",
		Collect:  scenarioCExperiment([]string{"lia", "olia"}, true),
		Text:     textScenarioC,
	})
}
