package harness

import (
	"fmt"
	"io"

	"mptcpsim/internal/core"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/trace"
)

// traceResult is one recorded two-path run of Figs. 7/8: window (and OLIA
// α) means plus the sampled window series for the figure shape.
type traceResult struct {
	algo       string
	w1, w2     float64
	a1, a2     float64
	hasAlpha   bool
	flipsCount int
	s1, s2     []trace.Point
}

// runTrace records one algorithm's window evolution on the two-link rig.
func runTrace(cfg Config, algo string, nTCP1, nTCP2 int) traceResult {
	n := compileRig(twoLinkSpec(cfg, nTCP1, nTCP2, algo))
	mp := n.Groups[2][0].Conn
	stop := cfg.Warmup + cfg.Duration
	probes := []trace.Probe{
		{Name: "w1", Fn: func() float64 { return mp.CwndPkts(0) }},
		{Name: "w2", Fn: func() float64 { return mp.CwndPkts(1) }},
	}
	if o, ok := mp.Controller().(*core.OLIA); ok {
		probes = append(probes,
			trace.Probe{Name: "a1", Fn: func() float64 { return o.Alpha(0) }},
			trace.Probe{Name: "a2", Fn: func() float64 { return o.Alpha(1) }},
		)
	}
	rec := trace.NewRecorder(n.Sim, 250*sim.Millisecond, stop, probes...)
	rec.Start(0)
	n.Sim.RunUntil(stop)

	res := traceResult{
		algo:       algo,
		w1:         rec.MeanAfter(0, cfg.Warmup),
		w2:         rec.MeanAfter(1, cfg.Warmup),
		flipsCount: flips(rec.Series(0), rec.Series(1)),
		s1:         rec.Series(0),
		s2:         rec.Series(1),
	}
	if len(probes) > 2 {
		res.hasAlpha = true
		res.a1 = rec.MeanAfter(2, cfg.Warmup)
		res.a2 = rec.MeanAfter(3, cfg.Warmup)
	}
	return res
}

// tracePoints converts a recorded series into Result samples.
func tracePoints(s []trace.Point) []SeriesPoint {
	out := make([]SeriesPoint, len(s))
	for i, p := range s {
		out[i] = SeriesPoint{T: p.T.Sec(), V: p.V}
	}
	return out
}

// resultTrace structures the recorded runs: one row of means per
// algorithm, plus the full sampled window series (named "<algo>/w1",
// "<algo>/w2") for the figure shape. Algorithms without an α probe (LIA)
// carry empty text cells in the α columns.
func resultTrace(results []traceResult) *Result {
	r := &Result{Columns: []Column{
		{Name: "algo"},
		{Name: "mean_w1", Unit: "pkts"}, {Name: "mean_w2", Unit: "pkts"},
		{Name: "mean_alpha1"}, {Name: "mean_alpha2"},
		{Name: "flips"},
	}}
	for _, t := range results {
		a1, a2 := TextCell(""), TextCell("")
		if t.hasAlpha {
			a1, a2 = NumCell(t.a1), NumCell(t.a2)
		}
		r.Rows = append(r.Rows, []Cell{
			TextCell(t.algo), NumCell(t.w1), NumCell(t.w2), a1, a2, IntCell(t.flipsCount),
		})
		r.Series = append(r.Series,
			Series{Name: t.algo + "/w1", Points: tracePoints(t.s1)},
			Series{Name: t.algo + "/w2", Points: tracePoints(t.s2)},
		)
	}
	return r
}

// seriesByName finds an attached series, or nil.
func (r *Result) seriesByName(name string) []SeriesPoint {
	for _, s := range r.Series {
		if s.Name == name {
			return s.Points
		}
	}
	return nil
}

// textTrace is the classic Figs. 7/8 layout: per algorithm a summary line
// (means, flappiness) and a decimated time series (about 12 columns).
func textTrace(r *Result, w io.Writer) error {
	for _, c := range r.Rows {
		algo := c[0].Text
		fmt.Fprintf(w, "%s: mean w1 = %.1f pkts, mean w2 = %.1f pkts", algo, c[1].Value, c[2].Value)
		if c[3].Kind == CellNumber {
			fmt.Fprintf(w, ", mean α1 = %+.3f, mean α2 = %+.3f", c[3].Value, c[4].Value)
		}
		fmt.Fprintf(w, ", flips(w1≶w2) = %d\n", c[5].Int())

		s1 := r.seriesByName(algo + "/w1")
		s2 := r.seriesByName(algo + "/w2")
		step := len(s1) / 12
		if step == 0 {
			step = 1
		}
		fmt.Fprintf(w, "  t(s):")
		for i := 0; i < len(s1); i += step {
			fmt.Fprintf(w, "%7.0f", s1[i].T)
		}
		fmt.Fprintf(w, "\n  w1:  ")
		for i := 0; i < len(s1); i += step {
			fmt.Fprintf(w, "%7.1f", s1[i].V)
		}
		fmt.Fprintf(w, "\n  w2:  ")
		for i := 0; i < len(s2); i += step {
			fmt.Fprintf(w, "%7.1f", s2[i].V)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// traceExperiment reproduces Figs. 7 and 8: the evolution of the two
// subflow windows (and OLIA's α) for a two-path user whose links are shared
// with nTCP1 and nTCP2 regular TCP flows.
func traceExperiment(nTCP1, nTCP2 int) func(cfg Config) (*Result, error) {
	return func(cfg Config) (*Result, error) {
		algos := []string{"olia", "lia"}
		results := perPoint(cfg, algos, func(algo string) traceResult {
			return runTrace(cfg, algo, nTCP1, nTCP2)
		})
		return resultTrace(results), nil
	}
}

// flips counts dominance changes between two sampled series — the
// flappiness indicator (a flappy controller alternates which path holds the
// larger window).
func flips(a, b []trace.Point) int {
	var count int
	prev := 0
	for i := range a {
		cur := 0
		switch {
		case a[i].V > 1.5*b[i].V:
			cur = 1
		case b[i].V > 1.5*a[i].V:
			cur = -1
		}
		if cur != 0 && prev != 0 && cur != prev {
			count++
		}
		if cur != 0 {
			prev = cur
		}
	}
	return count
}

func init() {
	register(&Experiment{
		ID:       "fig7",
		PaperRef: "Figure 7",
		Title:    "Symmetric two-path user (5 TCP flows on each link): OLIA uses both paths, no flappiness; α stays near zero",
		Collect:  traceExperiment(5, 5),
		Text:     textTrace,
	})
	register(&Experiment{
		ID:       "fig8",
		PaperRef: "Figure 8",
		Title:    "Asymmetric two-path user (5 vs 10 TCP flows): OLIA abandons the congested path (w2 ≈ 1); LIA keeps transmitting on it",
		Collect:  traceExperiment(5, 10),
		Text:     textTrace,
	})
}
