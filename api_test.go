package mptcpsim

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestAlgorithmsList(t *testing.T) {
	got := Algorithms()
	want := []string{"fullycoupled", "lia", "olia", "uncoupled"}
	if len(got) != len(want) {
		t.Fatalf("algorithms %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("algorithms %v, want %v", got, want)
		}
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if len(Experiments()) < 20 {
		t.Fatalf("only %d experiments exposed", len(Experiments()))
	}
	var b strings.Builder
	if err := NewLab().RunAll(context.Background(), []string{"fig5b"}, FormatText, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "C1/C2") {
		t.Fatalf("fig5b output:\n%s", b.String())
	}
	if err := NewLab().RunAll(context.Background(), []string{"nope"}, FormatText, &b); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestCollectExperimentStructured pins the structured facade: collecting
// an experiment yields typed columns and programmatically readable cells,
// and the same Result renders in every format.
func TestCollectExperimentStructured(t *testing.T) {
	ctx, lab := context.Background(), NewLab()
	r, err := lab.Collect(ctx, "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "fig5b" || r.PaperRef != "Figure 5(b)" {
		t.Fatalf("metadata not stamped: %q %q", r.ID, r.PaperRef)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows collected")
	}
	if v, ok := r.Value(0, "c1_over_c2"); !ok || v != 0.1 {
		t.Fatalf("Value(0, c1_over_c2) = %v, %v", v, ok)
	}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		var b strings.Builder
		if err := RenderResult(r, f, &b); err != nil || b.Len() == 0 {
			t.Fatalf("RenderResult %s: err=%v, %d bytes", f, err, b.Len())
		}
	}
	if _, err := lab.Collect(ctx, "nope"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestRunAllFormatJSON pins the facade's JSON stream: one parseable array
// of Results.
func TestRunAllFormatJSON(t *testing.T) {
	var b strings.Builder
	if err := NewLab().RunAll(context.Background(), []string{"fig4a", "fig17"}, FormatJSON, &b); err != nil {
		t.Fatal(err)
	}
	var got []Result
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("RunAll JSON does not parse: %v", err)
	}
	if len(got) != 2 || got[0].ID != "fig4a" || got[1].ID != "fig17" {
		t.Fatalf("unexpected result set (%d entries)", len(got))
	}
}

// TestDiffFacade pins the regression-diff entry point.
func TestDiffFacade(t *testing.T) {
	ctx, lab := context.Background(), NewLab()
	a, err := lab.Collect(ctx, "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := lab.Collect(ctx, "fig5b")
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); !d.Empty() {
		t.Fatalf("identical analytic runs should not differ: %+v", d)
	}
	b.Rows[0][1].Value *= 1.5
	d := Diff(a, b)
	if len(d.Cells) != 1 || d.Cells[0].Column != "lia_multi" {
		t.Fatalf("deltas %+v", d.Cells)
	}
	if d.MaxRelPct() < 49.99 || d.MaxRelPct() > 50.01 {
		t.Fatalf("MaxRelPct %v, want 50", d.MaxRelPct())
	}
}

func TestReportResultView(t *testing.T) {
	rep := Report{
		TotalMbps: 7.5,
		Paths: []PathReport{
			{MultipathMbps: 5, BackgroundMbps: 1.5, LossProb: 0.01, CwndPkts: 12},
			{MultipathMbps: 2.5, BackgroundMbps: 1.2, LossProb: 0.03, CwndPkts: 4},
		},
	}
	r := rep.Result()
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	if v, ok := r.Value(1, "multipath"); !ok || v != 2.5 {
		t.Fatalf("Value(1, multipath) = %v, %v", v, ok)
	}
	var b strings.Builder
	if err := RenderResult(r, FormatText, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "total 7.50 Mb/s") {
		t.Fatalf("text view missing total:\n%s", b.String())
	}
	// The report itself marshals with snake_case tags.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"total_mbps":7.5`) || !strings.Contains(string(raw), `"loss_prob":0.01`) {
		t.Fatalf("Report JSON tags missing: %s", raw)
	}
}

func TestConfigs(t *testing.T) {
	q, f := DefaultConfig(), FullConfig()
	if q.FatTreeK != 4 || f.FatTreeK != 8 {
		t.Fatalf("K: quick %d full %d", q.FatTreeK, f.FatTreeK)
	}
	if f.Seeds <= q.Seeds || f.Duration <= q.Duration {
		t.Fatal("full config should be larger")
	}
	if len(f.Subflows) != 7 || f.Subflows[6] != 8 {
		t.Fatalf("full subflows %v", f.Subflows)
	}
}

func TestSimulateTwoPathOLIA(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep, err := NewLab().Simulate(context.Background(), Scenario{
		Algorithm:   "olia",
		Paths:       []Path{{RateMbps: 10, BackgroundTCP: 2}, {RateMbps: 10, BackgroundTCP: 2}},
		DurationSec: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 2 {
		t.Fatalf("paths %d", len(rep.Paths))
	}
	if rep.TotalMbps < 1 || rep.TotalMbps > 20 {
		t.Fatalf("total %.2f Mb/s implausible", rep.TotalMbps)
	}
	for i, p := range rep.Paths {
		if p.BackgroundMbps <= 0 {
			t.Fatalf("path %d background idle", i)
		}
		if p.CwndPkts < 1 {
			t.Fatalf("path %d cwnd %v", i, p.CwndPkts)
		}
	}
}

func TestSimulateDefaultsAndErrors(t *testing.T) {
	ok := []Path{{RateMbps: 1}}
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"no paths", Scenario{}},
		{"bad algorithm", Scenario{Algorithm: "bogus", Paths: ok}},
		{"negative duration", Scenario{Paths: ok, DurationSec: -1}},
		{"negative seed", Scenario{Paths: ok, Seed: -5}},
		{"zero-rate path", Scenario{Paths: []Path{{RateMbps: 0}}}},
		{"negative-rate path", Scenario{Paths: []Path{{RateMbps: -2}}}},
		{"negative background count", Scenario{Paths: []Path{{RateMbps: 1, BackgroundTCP: -1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLab().Simulate(context.Background(), tc.sc); err == nil {
				t.Fatalf("Simulate(%+v) accepted invalid input", tc.sc)
			}
		})
	}
}

// TestScenarioFacade smokes the declarative scenario entry points through
// the public API.
func TestScenarioFacade(t *testing.T) {
	ctx, lab := context.Background(), NewLab()
	rep, err := lab.Run(ctx, ScenarioSpec{
		Name: "facade", Seed: 3, WarmupSec: 0.5, DurationSec: 1,
		Links: []ScenarioLink{{RateMbps: 2}},
		Paths: []ScenarioPath{{Links: []int{0}, DelayMs: 20}},
		Flows: []ScenarioFlow{{Algorithm: "olia", Paths: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Flows[0].GoodputMbps <= 0 {
		t.Fatalf("flow idle: %+v", rep.Flows[0])
	}
	if _, err := lab.Run(ctx, ScenarioSpec{DurationSec: 1}); err == nil {
		t.Fatal("empty spec must error")
	}
	fz, err := lab.Fuzz(ctx, FuzzOptions{N: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fz.Failed() {
		t.Fatalf("fuzz failures: %+v", fz.Failures)
	}
}

func TestSimulateDropTailPath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	rep, err := NewLab().Simulate(context.Background(), Scenario{
		Paths:       []Path{{RateMbps: 5, BackgroundTCP: 1, DropTail: true}},
		DurationSec: 10,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMbps <= 0 {
		t.Fatal("no goodput on drop-tail path")
	}
}

func TestAnalyzeTwoPath(t *testing.T) {
	lab := NewLab()
	a, err := lab.Analyze([]float64{0.01, 0.04}, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Best path: p=0.01: √200/0.1 pkts/s = 141.4 pkt/s ≈ 1.70 Mb/s.
	if math.Abs(a.TCPBestMbps-1.697) > 0.01 {
		t.Fatalf("TCP best %.3f", a.TCPBestMbps)
	}
	// OLIA: only the better path carries traffic.
	if a.OLIAMbps[1] != 0 {
		t.Fatalf("OLIA uses the worse path: %v", a.OLIAMbps)
	}
	// LIA: both carry traffic, 4:1 ratio (inverse loss).
	if r := a.LIAMbps[0] / a.LIAMbps[1]; math.Abs(r-4) > 1e-6 {
		t.Fatalf("LIA ratio %v, want 4", r)
	}
	// Totals equal best for both (goal 1).
	if math.Abs(a.LIAMbps[0]+a.LIAMbps[1]-a.TCPBestMbps) > 1e-9 {
		t.Fatal("LIA total != best TCP")
	}

	if _, err := lab.Analyze([]float64{0.1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("mismatched slices should error")
	}
	if _, err := lab.Analyze([]float64{0}, []float64{0.1}); err == nil {
		t.Fatal("nonpositive loss should error")
	}
}

// The paper's flagship behavioral claim at the API level: on asymmetric
// paths OLIA retreats from the congested one, LIA does not.
func TestSimulateOLIAvsLIAAsymmetric(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	run := func(algo string) Report {
		rep, err := NewLab().Simulate(context.Background(), Scenario{
			Algorithm:   algo,
			Paths:       []Path{{RateMbps: 10, BackgroundTCP: 5}, {RateMbps: 10, BackgroundTCP: 10}},
			DurationSec: 40,
			Seed:        2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	olia, lia := run("olia"), run("lia")
	if olia.Paths[1].MultipathMbps >= lia.Paths[1].MultipathMbps {
		t.Fatalf("congested path: OLIA %.3f >= LIA %.3f Mb/s",
			olia.Paths[1].MultipathMbps, lia.Paths[1].MultipathMbps)
	}
}
