// Command perfbench is the repository benchmark: it drives the simulator's
// public entry points on three workloads — regenerating the paper
// (paper), running cold campaigns (campaign-cold) and serving cached
// campaigns over loopback HTTP (serve-warm) — checks every output, and
// prints the end-to-end metrics, or with -trace 1 the per-layer metrics
// taken from spans recorded around the calls into each layer.
//
//	bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md for the
// metric table and what each workload loads.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runBudget bounds a whole run, set-up included, so a hung workload still
// exits (with an error and no result line) inside the harness's limit.
const runBudget = 170 * time.Second

// options are the parsed command line plus the scale the workloads run at.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout (goldens are read from it); work is
	// the scratch directory for caches and traces inside it.
	root, work string
	workers    int
	scale      scale
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", paperGoldenSeed, "workload seed (the paper goldens are checked at 7)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout to read goldens from and work in")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.workers = runtime.GOMAXPROCS(0)
	o.scale = fullScale
	o.work = filepath.Join(o.root, ".bench_build", "perfbench")

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		cancel()
		os.Exit(1)
	}
}

// run executes one workload and returns its report. The scratch directory
// holds only this run's caches and is removed on return; traces are kept
// beside it.
func run(ctx context.Context, o options) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if err := checkCheckout(o.root); err != nil {
		return nil, err
	}
	traceDir := filepath.Join(o.work, "traces")
	runDir := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(runDir)
	o.work = runDir

	rep := newReport(o)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if err := wl(ctx, o, rep, rec); err != nil {
		return nil, err
	}
	if rec != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := rec.write(path, o.workload, o.seed); err != nil {
			return nil, err
		}
		rep.layer["trace.spans"] = float64(rec.count())
		rep.note("trace: %d spans written to %s", rec.count(), path)
		for _, st := range rec.selfTimes() {
			rep.note("trace: self time %-10s %8d spans %12.3f ms", st.name, st.count, st.self.Seconds()*1e3)
		}
	}
	return rep, nil
}

// checkCheckout fails fast outside a repository checkout: the benchmark
// needs the simulator's committed goldens next to it.
func checkCheckout(root string) error {
	for _, p := range []string{"go.mod", filepath.Join("internal", "harness", "testdata", "golden")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("not a repository checkout (%s missing): %w", p, err)
		}
	}
	return nil
}
