// Benchmarks: one per table and figure of the paper, plus the DESIGN.md
// ablations and the sequential-vs-parallel registry comparison. Each
// per-experiment benchmark prints its experiment's rows once (so
// `go test -bench=. | tee bench_output.txt` captures the reproduced tables)
// and reports the wall time per regeneration.
//
// Scale: DefaultConfig by default; set MPTCPSIM_FULL=1 for the paper-scale
// configuration (much slower: 120 s runs, 5 seeds, K=8 FatTree).
package mptcpsim

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
)

func benchConfig() Config {
	if os.Getenv("MPTCPSIM_FULL") == "1" {
		return FullConfig()
	}
	return DefaultConfig()
}

// printedOnce ensures each experiment's table reaches stdout exactly once
// even when the benchmark framework reruns with larger b.N.
var printedOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	ctx, lab := context.Background(), NewLab(WithConfig(benchConfig()))
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if _, dup := printedOnce.LoadOrStore(id, true); !dup {
			fmt.Printf("\n===== %s =====\n", id)
			w = os.Stdout
		}
		r, err := lab.Collect(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		if err := RenderResult(r, FormatText, w); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scenario A (Figures 1, 9, 10) ---

func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }
func BenchmarkFig1c(b *testing.B) { benchExperiment(b, "fig1c") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// --- Scenario B (Figure 4, Tables I and II, Figure 17) ---

func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig17(b *testing.B)  { benchExperiment(b, "fig17") }

// --- Scenario C (Figures 5, 11, 12) ---

func BenchmarkFig5b(b *testing.B) { benchExperiment(b, "fig5b") }
func BenchmarkFig5c(b *testing.B) { benchExperiment(b, "fig5c") }
func BenchmarkFig5d(b *testing.B) { benchExperiment(b, "fig5d") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// --- Illustrations (Figures 7 and 8) ---

func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// --- Data center (Figures 13, 14, Table III) ---

func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// --- Ablations (DESIGN.md §4) ---

func BenchmarkAblationEpsilonFamily(b *testing.B)   { benchExperiment(b, "ablation-epsilon") }
func BenchmarkAblationQueueDiscipline(b *testing.B) { benchExperiment(b, "ablation-queue") }
func BenchmarkAblationSsthresh(b *testing.B)        { benchExperiment(b, "ablation-ssthresh") }
func BenchmarkAblationOliaCap(b *testing.B)         { benchExperiment(b, "ablation-cap") }

// --- Extensions (the paper's §VII future work) ---

func BenchmarkExtProbeSuspension(b *testing.B)  { benchExperiment(b, "ext-probe") }
func BenchmarkExtReceiveWindow(b *testing.B)    { benchExperiment(b, "ext-rwnd") }
func BenchmarkExtStreams(b *testing.B)          { benchExperiment(b, "ext-streams") }
func BenchmarkExtRTTHeterogeneity(b *testing.B) { benchExperiment(b, "ext-rtt") }
func BenchmarkAblationDelayedAck(b *testing.B)  { benchExperiment(b, "ablation-delack") }

// --- Registry: sequential vs parallel (internal/runner) ---

// registryBenchIDs is a simulation-heavy subset spanning every experiment
// family, used to compare worker counts on the shared pool.
var registryBenchIDs = []string{"fig1b", "table1", "fig7", "fig13a", "ablation-epsilon"}

// registryBenchConfig shrinks runs so the registry subset completes in a
// few seconds while still fanning out dozens of independent (experiment ×
// point × seed) jobs — enough for the worker pool to matter.
func registryBenchConfig(workers int) Config {
	return Config{
		Duration:   3 * sim.Second,
		Warmup:     sim.Second,
		DCDuration: 500 * sim.Millisecond,
		DCWarmup:   125 * sim.Millisecond,
		Seeds:      4,
		BaseSeed:   42,
		FatTreeK:   4,
		Subflows:   []int{2},
		Workers:    workers,
	}
}

// benchRegistry measures one full RunAll over the subset. Output is
// discarded; correctness (byte-identity across worker counts) is covered by
// the harness determinism tests.
func benchRegistry(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	ctx, lab := context.Background(), NewLab(WithConfig(registryBenchConfig(workers)))
	for i := 0; i < b.N; i++ {
		if err := lab.RunAll(ctx, registryBenchIDs, FormatText, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistrySequential(b *testing.B)  { benchRegistry(b, 1) }
func BenchmarkRegistryParallel2(b *testing.B)   { benchRegistry(b, 2) }
func BenchmarkRegistryParallel4(b *testing.B)   { benchRegistry(b, 4) }
func BenchmarkRegistryParallelMax(b *testing.B) { benchRegistry(b, 0) }

// --- Library micro-benchmarks ---

// BenchmarkSimulateTwoPath measures the end-to-end cost of the public
// Lab.Simulate API on a 10-second two-path scenario. The seed is fixed so
// every iteration runs the identical trajectory: allocs/op is then exact
// at any iteration count, which is what lets benchcheck hold it to zero
// growth (a per-iteration seed made the mean drift with b.N).
func BenchmarkSimulateTwoPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := NewLab().Simulate(context.Background(), Scenario{
			Algorithm:   "olia",
			Paths:       []Path{{RateMbps: 10, BackgroundTCP: 3}, {RateMbps: 10, BackgroundTCP: 3}},
			DurationSec: 10,
			Seed:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTwoPath measures the analytic fixed-point evaluation.
func BenchmarkAnalyzeTwoPath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewLab().Analyze([]float64{0.01, 0.02}, []float64{0.1, 0.15}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel micro-benchmarks (internal/sim + internal/netem hot paths) ---
//
// These isolate the per-event and per-packet cost every simulation pays:
// event scheduling churn, pipe transit, and queue service under both
// disciplines. `make bench` runs them with -benchmem and records the
// results in BENCH_kernel.json so allocs/op regressions are visible per
// subsystem.

// BenchmarkEventChurn measures a self-rescheduling timer chain: one event
// scheduled, fired, and rescheduled per iteration — the pure kernel cost of
// the event queue with no network model attached.
func BenchmarkEventChurn(b *testing.B) {
	b.ReportAllocs()
	s := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(sim.Microsecond, tick)
		}
	}
	s.After(sim.Microsecond, tick)
	b.ResetTimer()
	s.Run()
	if n != b.N {
		b.Fatalf("ran %d events, want %d", n, b.N)
	}
}

// benchTransit drives b.N packets one at a time through the given entry
// node to a terminal collector, draining the simulator each iteration. It
// uses the production packet lifecycle: pool allocation at the source,
// Free at the collector.
func benchTransit(b *testing.B, s *sim.Sim, entry netem.Node, size int) {
	b.Helper()
	b.ReportAllocs()
	pool := netem.PoolFor(s)
	delivered := 0
	c := &netem.Collector{OnRecv: func(*netem.Packet) { delivered++ }}
	route := netem.NewRoute(entry, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := pool.NewData(0, int64(i)*int64(size), size, s.Now(), route)
		pkt.SendOn()
		s.Run()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// BenchmarkPipeTransit measures one packet crossing a propagation-delay
// pipe: the per-packet scheduling plus delivery cost.
func BenchmarkPipeTransit(b *testing.B) {
	s := sim.New(1)
	benchTransit(b, s, netem.NewPipe(s, sim.Millisecond, "p"), netem.MSS)
}

// BenchmarkDropTailService measures one packet through a drop-tail queue:
// arrival, service scheduling, and completion.
func BenchmarkDropTailService(b *testing.B) {
	s := sim.New(1)
	benchTransit(b, s, netem.NewDropTail(s, 100e6, 100, "q"), netem.MSS)
}

// BenchmarkDropTailBacklog measures one departure from a drop-tail queue
// holding a standing 100-packet backlog: each delivery admits a replacement
// at the tail. BenchmarkDropTailService serves one packet at a time, so it
// cannot see a cost that grows with the backlog.
func BenchmarkDropTailBacklog(b *testing.B) {
	const backlog = 100
	b.ReportAllocs()
	s := sim.New(1)
	pool := netem.PoolFor(s)
	var route *netem.Route
	sent := int64(0)
	send := func() {
		pool.NewData(0, sent*netem.MSS, netem.MSS, s.Now(), route).SendOn()
		sent++
	}
	c := &netem.Collector{OnRecv: func(*netem.Packet) { send() }}
	route = netem.NewRoute(netem.NewDropTail(s, 100e6, 2*backlog, "q"), c)
	for range backlog {
		send()
	}
	b.ResetTimer()
	s.RunUntil(sim.Time(b.N) * sim.TxTime(netem.MSS, 100e6))
	b.StopTimer()
	if c.Count != int64(b.N) {
		b.Fatalf("served %d packets, want %d", c.Count, b.N)
	}
}

// BenchmarkREDService is the same service path through a RED queue (EWMA
// update and admission test included).
func BenchmarkREDService(b *testing.B) {
	s := sim.New(1)
	benchTransit(b, s, netem.NewRED(s, 100e6, netem.PaperRED(100e6), "q"), netem.MSS)
}
