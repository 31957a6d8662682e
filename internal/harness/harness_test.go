package harness

import (
	"context"
	"strings"
	"testing"

	"mptcpsim/internal/sim"
	"mptcpsim/internal/trace"
)

// tinyConfig keeps each experiment to a fraction of a second of wall time.
func tinyConfig() Config {
	return Config{
		Duration:   8 * sim.Second,
		Warmup:     2 * sim.Second,
		DCDuration: sim.Second,
		DCWarmup:   250 * sim.Millisecond,
		Seeds:      1,
		BaseSeed:   7,
		FatTreeK:   4,
		Subflows:   []int{2, 3},
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1b", "fig1c", "table1", "fig4a", "fig4b", "fig5b", "fig5c",
		"fig5d", "fig7", "fig8", "fig9", "fig10", "table2", "fig11",
		"fig12", "fig13a", "fig13b", "fig14", "table3", "fig17",
		"ablation-epsilon", "ablation-queue", "ablation-ssthresh",
		"ablation-cap", "ablation-delack", "ext-probe", "ext-rwnd",
		"ext-streams", "ext-rtt",
	}
	for _, id := range want {
		if Get(id) == nil {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) < len(want) {
		t.Fatalf("registry has %d entries, want at least %d", len(Experiments()), len(want))
	}
	if len(IDs()) != len(Experiments()) {
		t.Fatal("IDs/Experiments mismatch")
	}
	if Get("nope") != nil {
		t.Fatal("unknown ID should be nil")
	}
}

func TestExperimentMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Collect == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate experiment ID did not panic")
		}
	}()
	register(&Experiment{
		ID: "fig1b", PaperRef: "test", Title: "duplicate probe",
		Collect: func(cfg Config) (*Result, error) { return &Result{}, nil },
	})
}

// The analytic experiments are cheap; run them at full fidelity and verify
// headline numbers from the paper appear in the right relationships.
func TestAnalyticExperimentsRun(t *testing.T) {
	cfg := DefaultConfig()
	for _, id := range []string{"fig4a", "fig4b", "fig5b", "fig17"} {
		var b strings.Builder
		if err := Get(id).Run(context.Background(), cfg, &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(strings.Split(b.String(), "\n")) < 5 {
			t.Fatalf("%s produced too little output:\n%s", id, b.String())
		}
	}
}

func TestScenarioExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	for _, id := range []string{"fig1b", "table1", "fig7"} {
		var b strings.Builder
		if err := Get(id).Run(context.Background(), cfg, &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestDatacenterExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	for _, id := range []string{"fig13a", "table3"} {
		var b strings.Builder
		if err := Get(id).Run(context.Background(), cfg, &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if b.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestDCThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	cfg := tinyConfig()
	// MPTCP with several subflows must beat single-path TCP on aggregate
	// (the core Fig. 13(a) claim).
	tcp := dcThroughput(cfg, dcPoint{"tcp", 1}, 1)
	olia := dcThroughput(cfg, dcPoint{"olia", 3}, 1)
	var tcpSum, oliaSum float64
	for i := range tcp {
		tcpSum += tcp[i]
		oliaSum += olia[i]
	}
	if oliaSum <= tcpSum {
		t.Fatalf("OLIA aggregate %.0f%% not above TCP %.0f%%", oliaSum, tcpSum)
	}
}

func TestFlipsMetric(t *testing.T) {
	a := []trace.Point{{T: 0, V: 10}, {T: 1, V: 10}, {T: 2, V: 1}, {T: 3, V: 10}}
	b := []trace.Point{{T: 0, V: 1}, {T: 1, V: 1}, {T: 2, V: 10}, {T: 3, V: 1}}
	if got := flips(a, b); got != 2 {
		t.Fatalf("flips %d, want 2", got)
	}
	// No dominance changes: zero flips.
	c := []trace.Point{{T: 0, V: 10}, {T: 1, V: 12}, {T: 2, V: 9}}
	d := []trace.Point{{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}}
	if got := flips(c, d); got != 0 {
		t.Fatalf("flips %d, want 0", got)
	}
}

// TestSerialTransfersStopAtLastCompletion: a serial-transfer run dispatches
// no event after its last transfer completes, in both transport modes. The
// background TCP flows would otherwise keep it simulating to the 600 s cap,
// although nothing after the last completion reaches the results.
func TestSerialTransfersStopAtLastCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	const transfers = 20
	for _, mode := range []string{"tcp", "mptcp-olia stream"} {
		n := serialRig(goldenConfig())
		done := 0
		var atLast uint64
		launchSerial(n, mode, 512*1024, transfers, func(sim.Time) {
			if done++; done == transfers {
				atLast = n.Sim.Processed()
			}
		})
		n.Sim.RunUntil(600 * sim.Second)
		if done != transfers {
			t.Fatalf("%s: %d of %d transfers completed", mode, done, transfers)
		}
		if got := n.Sim.Processed(); got != atLast {
			t.Errorf("%s: %d events dispatched after the last completion", mode, got-atLast)
		}
		if n.Sim.Now() >= 600*sim.Second || n.Sim.Pending() == 0 {
			t.Errorf("%s: run reached %v with %d events pending; want it stopped mid-run",
				mode, n.Sim.Now(), n.Sim.Pending())
		}
	}
}
