package scenario

import (
	"math"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// The paper rigs are checked qualitatively here, over a 5 s warm-up and a
// 55 s measurement window; internal/harness pins their exact outputs.
const (
	paperWarmupSec  = 5
	paperMeasureSec = 55
)

// windowMbps compiles sp and runs it through the warm-up and measurement
// window. It returns each flow group's per-replica goodput over the window
// in Mb/s, and the compiled network for further inspection.
func windowMbps(t *testing.T, sp *Spec) ([][]float64, *Net) {
	t.Helper()
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	n.Sim.RunUntil(sim.Seconds(paperWarmupSec))
	base := make([][]int64, len(n.Groups))
	for g, flows := range n.Groups {
		for _, f := range flows {
			base[g] = append(base[g], f.GoodputBytes())
		}
	}
	n.Sim.RunUntil(sim.Seconds(paperWarmupSec + paperMeasureSec))
	rates := make([][]float64, len(n.Groups))
	for g, flows := range n.Groups {
		for i, f := range flows {
			rates[g] = append(rates[g], stats.Mbps(f.GoodputBytes()-base[g][i], paperMeasureSec))
		}
	}
	return rates, n
}

// mean averages a group's per-replica rates.
func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// total sums every replica's rate across all groups.
func total(groups [][]float64) float64 {
	var sum float64
	for _, g := range groups {
		for _, v := range g {
			sum += v
		}
	}
	return sum
}

func TestScenarioAPenalizesType2UnderLIA(t *testing.T) {
	rates, n := windowMbps(t, PaperScenarioA(10, 10, 1, 1, "lia", 1, paperWarmupSec, paperMeasureSec))
	t1, t2 := mean(rates[0]), mean(rates[1])
	// Type1 users are capped by the server link at C1 = 1 Mb/s each.
	if t1 < 0.6 || t1 > 1.1 {
		t.Errorf("type1 %.2f Mb/s, want ≈1 (server-limited)", t1)
	}
	// The paper reports ≈30% degradation for type2 at N1=N2: they must be
	// visibly below their fair 1 Mb/s.
	if t2 > 0.9 {
		t.Errorf("type2 %.2f Mb/s: LIA should depress type2 throughput", t2)
	}
	if p2 := n.Links[1].Queue.Stats().LossProb(); p2 <= 0 {
		t.Error("no congestion at shared AP")
	}
}

func TestScenarioAOLIARelievesType2(t *testing.T) {
	run := func(algo string) (t2, p2 float64) {
		rates, n := windowMbps(t, PaperScenarioA(10, 10, 1, 1, algo, 1, paperWarmupSec, paperMeasureSec))
		return mean(rates[1]), n.Links[1].Queue.Stats().LossProb()
	}
	t2LIA, p2LIA := run("lia")
	t2OLIA, p2OLIA := run("olia")
	if t2OLIA <= t2LIA {
		t.Errorf("type2 under OLIA (%.2f) not better than LIA (%.2f)", t2OLIA, t2LIA)
	}
	if p2OLIA >= p2LIA {
		t.Errorf("shared-AP loss under OLIA (%.4f) not below LIA (%.4f)", p2OLIA, p2LIA)
	}
}

func TestScenarioASinglePathBaseline(t *testing.T) {
	// Before the MPTCP upgrade, type1 users run plain TCP on their private
	// path only.
	sp := PaperScenarioA(5, 5, 1, 1, "olia", 5, paperWarmupSec, paperMeasureSec)
	sp.Flows[0].Algorithm, sp.Flows[0].Paths = AlgoTCP, []int{0}
	rates, n := windowMbps(t, sp)
	if got := len(n.Groups[0]); got != 5 || n.Groups[0][0].Conn != nil {
		t.Fatalf("single-path build wrong: %d type1 users, conn %v", got, n.Groups[0][0].Conn)
	}
	// Without the upgrade both classes get their full capacity:
	// normalized throughput ≈ 1 for everyone.
	for g, group := range rates {
		for i, got := range group {
			if got < 0.75 {
				t.Errorf("group %d user %d only %.2f Mb/s in the unupgraded baseline", g, i, got)
			}
		}
	}
}

func TestScenarioCOLIAFairerToSinglePath(t *testing.T) {
	single := func(algo string) float64 {
		rates, _ := windowMbps(t, PaperScenarioC(20, 10, 2, 1, algo, 2, paperWarmupSec, paperMeasureSec))
		return mean(rates[1])
	}
	lia, olia := single("lia"), single("olia")
	// C1/C2 = 2: multipath users should stay off AP2 entirely under an
	// optimal algorithm. OLIA must leave single-path users substantially
	// more than LIA (the paper reports up to 2x at larger N1/N2; at
	// N1/N2 = 2 the analytic gap is ≈0.66 vs ≈0.8).
	if olia <= lia*1.10 {
		t.Errorf("single-path: OLIA %.3f Mb/s vs LIA %.3f Mb/s, want ≥10%% gain", olia, lia)
	}
}

// scenarioBAggregate is the total goodput of every Scenario B user.
func scenarioBAggregate(t *testing.T, algo string, redMultipath bool) float64 {
	rates, _ := windowMbps(t, PaperScenarioB(15, 27, 36, algo, redMultipath, 3, paperWarmupSec, paperMeasureSec))
	return total(rates)
}

func TestScenarioBUpgradeHurtsWithLIA(t *testing.T) {
	single := scenarioBAggregate(t, "lia", false)
	multi := scenarioBAggregate(t, "lia", true)
	// Cut-set bound: 63 Mb/s. Red-singlepath should be close to it.
	if single > 63.5 {
		t.Fatalf("aggregate %.1f exceeds the 63 Mb/s cut-set bound", single)
	}
	if single < 50 {
		t.Fatalf("aggregate %.1f too far below the cut-set bound", single)
	}
	// The paper's Table I: upgrading Red users to LIA drops the aggregate
	// by ≈13%. Require a visible drop.
	if multi > single-2 {
		t.Errorf("LIA upgrade: aggregate went %.1f -> %.1f, expected a clear drop", single, multi)
	}
}

func TestScenarioBOLIAUpgradeNearlyHarmless(t *testing.T) {
	liaDrop := scenarioBAggregate(t, "lia", false) - scenarioBAggregate(t, "lia", true)
	oliaDrop := scenarioBAggregate(t, "olia", false) - scenarioBAggregate(t, "olia", true)
	if oliaDrop >= liaDrop {
		t.Errorf("OLIA upgrade penalty (%.1f Mb/s) not below LIA's (%.1f Mb/s)", oliaDrop, liaDrop)
	}
}

// TestScenarioBStructure pins the Fig. 3 wiring the golden figures depend
// on: Red's upgrade path crosses X then T and comes first, and each group
// keeps its flow-ID block.
func TestScenarioBStructure(t *testing.T) {
	sp := PaperScenarioB(2, 27, 36, "olia", true, 1, 1, 1)
	red := sp.Flows[1]
	if got := sp.Paths[red.Paths[0]].Links; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Red's first path crosses links %v, want [0 1] (X then T)", got)
	}
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	for g, want := range []int{3000, 5000} {
		for r, f := range n.Groups[g] {
			if got := f.Srcs[0].ID(); got != want+2*r {
				t.Errorf("group %d replica %d ID %d, want %d", g, r, got, want+2*r)
			}
		}
	}
	sp = PaperScenarioB(2, 27, 36, "olia", false, 1, 1, 1)
	if red := sp.Flows[1]; red.Algorithm != AlgoTCP || red.BaseID != 4000 || len(red.Paths) != 1 {
		t.Fatalf("single-path Red users: %+v", red)
	}
}

func TestTwoLinkSmoke(t *testing.T) {
	n, err := Compile(TwoLink(10, 5, 5, "olia", 4, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	n.Sim.RunUntil(20 * sim.Second)
	mp := n.Groups[2][0]
	if mp.Conn == nil || mp.GoodputBytes() == 0 {
		t.Fatal("multipath user idle")
	}
	for _, f := range append(n.Groups[0], n.Groups[1]...) {
		if f.GoodputBytes() == 0 {
			t.Fatal("tcp user idle")
		}
	}
}

// TestTwoLinkGroups pins the rig's group layout: a link without background
// flows gets no group, and the multipath user is always last.
func TestTwoLinkGroups(t *testing.T) {
	sp := TwoLink(10, 0, 3, "lia", 1, 0, 1)
	if len(sp.Flows) != 2 || sp.Flows[0].Paths[0] != 1 || sp.Flows[1].Name != "mp" {
		t.Fatalf("flows %+v", sp.Flows)
	}
	if mp := sp.Flows[1]; mp.StartSec != 0.5 || mp.StartJitter || mp.BaseID != 300 {
		t.Fatalf("multipath user %+v, want an unjittered 0.5 s start with IDs from 300", mp)
	}
}

// TestPaperRigsRejectBadParameters: a bad rig parameter surfaces as a
// Validate error naming the problem, not as a silently built network.
func TestPaperRigsRejectBadParameters(t *testing.T) {
	cases := []struct {
		name    string
		sp      *Spec
		wantErr string
	}{
		{"A without type1 users", PaperScenarioA(0, 1, 1, 1, "olia", 1, 1, 1), "link 0 rate must be positive"},
		{"A unknown algorithm", PaperScenarioA(1, 1, 1, 1, "cubic", 1, 1, 1), `unknown algorithm "cubic"`},
		{"B zero X capacity", PaperScenarioB(1, 0, 1, "lia", false, 1, 1, 1), "link 0 rate must be positive"},
		{"B negative users", PaperScenarioB(-1, 1, 1, "lia", true, 1, 1, 1), "negative count"},
		{"C zero C1", PaperScenarioC(1, 1, 0, 1, "olia", 1, 1, 1), "link 0 rate must be positive"},
		{"C NaN C2", PaperScenarioC(1, 1, 1, math.NaN(), "olia", 1, 1, 1), "link 1 has a non-finite rate"},
		{"two-link negative capacity", TwoLink(-1, 1, 1, "olia", 1, 1, 1), "rate must be positive"},
		{"two-link negative background", TwoLink(10, -1, 1, "olia", 1, 1, 1), "negative count"},
		{"two-link zero duration", TwoLink(10, 1, 1, "olia", 1, 1, 0), "duration must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
