package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/sim"
)

// paperGoldenSeed is the base seed the committed harness goldens were
// taken at; only under it is the paper output compared with them.
const paperGoldenSeed = 7

// paperFamily groups the experiments by the part of the paper they
// reproduce; everything not listed is an extension (ablations, extra
// experiments, scheduler matrices).
var paperFamily = map[string]string{
	"fig1b": "scenario_a", "fig1c": "scenario_a", "fig9": "scenario_a", "fig10": "scenario_a",
	"table1": "scenario_b", "table2": "scenario_b",
	"fig5c": "scenario_c", "fig5d": "scenario_c", "fig11": "scenario_c", "fig12": "scenario_c",
	"fig13a": "datacenter", "fig13b": "datacenter", "fig14": "datacenter", "table3": "datacenter",
	"fig4a": "analytic", "fig4b": "analytic", "fig5b": "analytic", "fig17": "analytic",
	"fig7": "traces", "fig8": "traces",
}

func family(id string) string {
	if f, ok := paperFamily[id]; ok {
		return f
	}
	return "extensions"
}

// paperConfig is the harness golden configuration (6 s runs after a 2 s
// warm-up, 1 s/0.25 s data-centre runs, 2 seeds, K=4, subflows {2,3})
// under the workload seed.
func paperConfig(seed int64, workers int) mptcpsim.Config {
	return mptcpsim.Config{
		Duration:   6 * sim.Second,
		Warmup:     2 * sim.Second,
		DCDuration: sim.Second,
		DCWarmup:   250 * sim.Millisecond,
		Seeds:      2,
		BaseSeed:   seed,
		FatTreeK:   4,
		Subflows:   []int{2, 3},
		Workers:    workers,
	}
}

// banner is the line Lab.RunAll's text output puts before each experiment.
func banner(id string) string { return "\n===== " + id + " =====\n" }

// paperBench is the paper workload's state after set-up.
type paperBench struct {
	o   options
	rep *report
	lab *mptcpsim.Lab
	ids []string
	// want is each experiment's expected banner and table: the golden at
	// the golden seed, otherwise the first output seen in this run.
	want [][]byte
	// digest is the SHA-256 of the first full regeneration, for the guard.
	digest string
}

// runPaper regenerates every registered experiment with Lab.RunAll in a
// closed loop, comparing each experiment's text with the golden (or, under
// another seed, with the run's first pass). The traced run collects and
// renders the experiments one at a time with a span around each call.
func runPaper(ctx context.Context, o options, rep *report, rec *recorder) error {
	p := newPaperBench(o, rep)
	if err := rep.timeSetup(o.scale.cheapSetups, func(bool) error { return p.setup(ctx) }); err != nil {
		return err
	}
	phases := 1
	if rec != nil {
		phases = 3
	}
	cpu, err := startCPU()
	if err != nil {
		return err
	}
	var out bytes.Buffer
	ops, err := loop(ctx, budget(o, phases), func() (time.Duration, error) { return p.regenerate(ctx, &out) })
	if err != nil {
		return err
	}
	util, err := cpu.util(o.workers)
	if err != nil {
		return err
	}
	rep.setLatency(ops, perOp(ops, len(p.ids)))
	if err := rep.setRSS(); err != nil {
		return err
	}
	p.guard()
	if rec == nil {
		return nil
	}
	rep.layer["runner.cpu_util"] = util

	// The same sequence of calls without and with span recording; the
	// difference is the tracing overhead.
	acc := paperLayers{collect: make(map[string]time.Duration)}
	plain, err := loop(ctx, budget(o, phases), func() (time.Duration, error) { return p.collectEach(ctx, nil, nil) })
	if err != nil {
		return err
	}
	traced, err := loop(ctx, budget(o, phases), func() (time.Duration, error) { return p.collectEach(ctx, rec, &acc) })
	if err != nil {
		return err
	}
	rep.layer["trace.overhead_frac"] = meanDur(traced).Seconds()/meanDur(plain).Seconds() - 1
	n := float64(len(traced))
	for fam, d := range acc.collect {
		rep.layer["harness.collect_s."+fam] = d.Seconds() / n
	}
	rep.layer["harness.render_ms"] = acc.render.Seconds() * 1e3 / n
	rep.layer["harness.allocs"] = float64(acc.allocs) / n
	rep.layer["harness.alloc_mb"] = float64(acc.allocBytes) / n / (1 << 20)
	return nil
}

// newPaperBench selects the experiments: the scale's list, or the whole
// registry in listing order.
func newPaperBench(o options, rep *report) *paperBench {
	p := &paperBench{o: o, rep: rep, ids: o.scale.paperIDs}
	if p.ids == nil {
		for _, e := range mptcpsim.Experiments() {
			p.ids = append(p.ids, e.ID)
		}
	}
	return p
}

// paperWarmup is the experiment collected during set-up, so that lazy
// first-use costs (heap growth, packet pools) are paid before timing. It is
// one of the shortest that runs packet-level simulations.
const paperWarmup = "table1"

// setup builds the Lab, loads the expected output and collects the warm-up
// experiment.
func (p *paperBench) setup(ctx context.Context) error {
	p.lab = mptcpsim.NewLab(mptcpsim.WithConfig(paperConfig(p.o.seed, p.o.workers)))
	if _, err := p.lab.Collect(ctx, paperWarmup); err != nil {
		return err
	}
	p.want = make([][]byte, len(p.ids))
	if p.o.seed != paperGoldenSeed {
		return nil
	}
	for i, id := range p.ids {
		g, err := os.ReadFile(filepath.Join(p.o.root, "internal", "harness", "testdata", "golden", id+".txt"))
		if err != nil {
			return fmt.Errorf("reading golden: %w", err)
		}
		p.want[i] = append([]byte(banner(id)), g...)
	}
	return nil
}

// regenerate is one closed-loop operation: Lab.RunAll over every
// experiment, checked experiment by experiment.
func (p *paperBench) regenerate(ctx context.Context, out *bytes.Buffer) (time.Duration, error) {
	out.Reset()
	t0 := time.Now()
	runErr := p.lab.RunAll(ctx, p.ids, mptcpsim.FormatText, out)
	d := time.Since(t0)
	if err := ctx.Err(); err != nil {
		return 0, fmt.Errorf("run budget exceeded: %w", err)
	}
	if runErr != nil {
		p.rep.note("RunAll: %v", runErr)
	}
	if p.digest == "" {
		sum := sha256.Sum256(out.Bytes())
		p.digest = hex.EncodeToString(sum[:])
	}
	chunks := splitPaper(out.Bytes(), p.ids)
	for i, id := range p.ids {
		p.checkChunk(i, id, chunks[i])
	}
	return d, nil
}

// checkChunk compares one experiment's banner and table with the expected
// bytes; under a non-golden seed the first output seen becomes expected.
func (p *paperBench) checkChunk(i int, id string, got []byte) {
	if p.want[i] == nil && got != nil {
		p.want[i] = bytes.Clone(got)
	}
	ref := "the run's first pass"
	if p.o.seed == paperGoldenSeed {
		ref = "the golden"
	}
	p.rep.check(got != nil && bytes.Equal(got, p.want[i]), "paper %s: output differs from %s", id, ref)
}

// splitPaper cuts RunAll text output into each experiment's banner and
// table, in listing order; a missing banner leaves that entry nil.
func splitPaper(out []byte, ids []string) [][]byte {
	chunks := make([][]byte, len(ids))
	starts := make([]int, len(ids))
	from := 0
	for i, id := range ids {
		j := bytes.Index(out[from:], []byte(banner(id)))
		if j < 0 {
			starts[i] = -1
			continue
		}
		starts[i] = from + j
		from = starts[i] + len(banner(id))
	}
	for i := range ids {
		if starts[i] < 0 {
			continue
		}
		end := len(out)
		for k := i + 1; k < len(ids); k++ {
			if starts[k] >= 0 {
				end = starts[k]
				break
			}
		}
		chunks[i] = out[starts[i]:end]
	}
	return chunks
}

// paperLayers accumulates the traced per-experiment measurements.
type paperLayers struct {
	collect    map[string]time.Duration
	render     time.Duration
	allocs     uint64
	allocBytes uint64
}

// collectEach collects and renders every experiment in turn through
// Lab.Collect and RenderResult, the calls RunAll makes for each one,
// checking each output. With a recorder it records an "experiment" span
// with "collect" and "render" children, and allocation deltas around the
// collect call.
func (p *paperBench) collectEach(ctx context.Context, rec *recorder, acc *paperLayers) (time.Duration, error) {
	start := time.Now()
	var b bytes.Buffer
	for i, id := range p.ids {
		var m0, m1 runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		r, err := p.lab.Collect(ctx, id)
		t1 := time.Now()
		if rec != nil {
			runtime.ReadMemStats(&m1)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, fmt.Errorf("run budget exceeded: %w", ctxErr)
		}
		b.Reset()
		b.WriteString(banner(id))
		t2 := time.Now()
		if err == nil {
			err = mptcpsim.RenderResult(r, mptcpsim.FormatText, &b)
		}
		t3 := time.Now()
		if err != nil {
			p.rep.note("%s: %v", id, err)
			p.rep.check(false, "paper %s: collect or render failed", id)
			continue
		}
		p.checkChunk(i, id, b.Bytes())
		if rec == nil {
			continue
		}
		root := rec.add(-1, "experiment", id, t0, t3, nil)
		rec.add(root, "collect", id, t0, t1, nil)
		rec.add(root, "render", id, t2, t3, nil)
		acc.collect[family(id)] += t1.Sub(t0)
		acc.render += t3.Sub(t2)
		acc.allocs += m1.Mallocs - m0.Mallocs
		acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return time.Since(start), nil
}

// guard states whether the regeneration matches the recorded output hash.
func (p *paperBench) guard() {
	if !p.o.scale.guarded {
		return
	}
	want, ok := recordedValues().Paper[p.o.seed]
	switch {
	case !ok:
		p.rep.note("guard: no output recorded for seed %d", p.o.seed)
	case want != p.digest:
		p.rep.layer["guard.counts_differ"] = 1
		p.rep.note("guard: output sha256 %s DIFFERS from the recorded %s", p.digest, want)
	default:
		p.rep.note("guard: output sha256 %s matches the recorded value", p.digest)
	}
}
