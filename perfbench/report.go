package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// workload from its untraced pass. The "operation" is the workload's
// user-visible call: one Lab.RunAll regeneration (paper), one cold
// Lab.Campaign (campaign-cold), one HTTP job (serve-warm); throughput
// counts the workload's natural item: experiments, scenarios or jobs.
// Only the median is end to end: a run holds a handful of paper or
// campaign passes, too few for a tail percentile; the job tail is a
// serve-layer metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the metrics of single layers, reported by every workload's
// traced run. A layer the workload does not load reports 0.
var perLayer = []metricDef{
	{"harness.collect_s.scenario_a", "s"},
	{"harness.collect_s.scenario_b", "s"},
	{"harness.collect_s.scenario_c", "s"},
	{"harness.collect_s.datacenter", "s"},
	{"harness.collect_s.analytic", "s"},
	{"harness.collect_s.traces", "s"},
	{"harness.collect_s.extensions", "s"},
	{"harness.render_ms", "ms"},
	{"harness.allocs", "count"},
	{"harness.alloc_mb", "MB"},
	{"runner.cpu_util", "ratio"},
	{"campaign.sample_us", "us"},
	{"campaign.cachekey_us", "us"},
	{"scenario.compile_us", "us"},
	{"scenario.run_ms_p50", "ms"},
	{"scenario.run_ms_p99", "ms"},
	{"scenario.allocs_per_run", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"tcp.sent_pkts", "count"},
	{"tcp.timeouts", "count"},
	{"tcp.goodput_per_sent", "ratio"},
	{"netem.drops", "count"},
	{"mptcp.completions", "count"},
	{"mptcp.completion_s_p50", "sim_s"},
	{"campaign.cache_entries", "count"},
	{"campaign.cache_kb", "KB"},
	{"campaign.overhead_frac", "ratio"},
	{"campaign.warm_us_per_scenario", "us"},
	{"campaign.cache_hit_ratio", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.result_ms_p50", "ms"},
	{"serve.event_lines_per_job", "count"},
	{"serve.job_p90_ms", "ms"},
	{"serve.job_p99_ms", "ms"},
	{"serve.retained_kb_per_job", "KB"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
	{"guard.counts_differ", "count"},
}

// report accumulates one run's outcome: operation counts, both metric
// sets, and the human-readable notes printed above the result line.
type report struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
}

func newReport(o options) *report {
	r := &report{
		workload: o.workload,
		trace:    o.trace,
		e2e:      make(map[string]float64),
		layer:    make(map[string]float64),
	}
	// Layers a workload does not load stay at zero.
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	r.note("perfbench: workload=%s seed=%d seconds=%g trace=%v workers=%d",
		o.workload, o.seed, o.seconds, o.trace, o.workers)
	return r
}

// note appends one line to the human-readable part of the output.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one checked operation, failed when ok is false; the
// formatted message says what went wrong and is printed for the first few
// failures.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= 10 {
		r.note("FAILED: "+format, args...)
	}
}

// valued is one metric with its unit, as the result line encodes it.
type valued struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

// print writes the notes, a table of every metric with its unit, and the
// JSON result line, which carries the end-to-end metrics, or with tracing
// the per-layer ones.
func (r *report) print(w io.Writer) error {
	var b strings.Builder
	for _, n := range r.notes {
		b.WriteString(n + "\n")
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(&b, "  %-32s %14s %-6s (%d of %d operations failed)\n", "error_rate",
		strconv.FormatFloat(errRate, 'g', 6, 64), "ratio", r.failed, r.attempted)
	table := func(title string, defs []metricDef, vals map[string]float64) {
		fmt.Fprintf(&b, "%s:\n", title)
		for _, m := range defs {
			if v, ok := vals[m.name]; ok {
				fmt.Fprintf(&b, "  %-32s %14s %s\n", m.name, strconv.FormatFloat(v, 'g', 6, 64), m.unit)
			}
		}
	}
	table("end-to-end (untraced pass)", endToEnd, r.e2e)
	defs, vals := endToEnd, r.e2e
	if r.trace {
		table("per-layer (traced pass)", perLayer, r.layer)
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]valued, len(defs)),
	}
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", r.workload, m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s reported %s = %v", r.workload, m.name, v)
		}
		res.Metrics[m.name] = valued{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// meanDur is the mean of non-empty ds.
func meanDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

// setLatency records the median of per-operation wall times and the
// throughput in items per second.
func (r *report) setLatency(ops []time.Duration, perSecond float64) {
	r.e2e["latency_p50_ms"] = quantile(millis(ops), 0.50)
	r.e2e["throughput_per_s"] = perSecond
	r.note("samples: %d operations", len(ops))
}

// perOp is the throughput of operations of items each at their median
// time, so a stall during one operation moves it no more than it moves one
// sample.
func perOp(ops []time.Duration, items int) float64 {
	return float64(items) / (quantile(millis(ops), 0.5) / 1e3)
}

// timeSetup runs set-up n times and records the median as setup_s. setup
// is told which call is the last: earlier calls tear their state down
// again, the last one's state is kept for the measurement.
func (r *report) timeSetup(n int, setup func(last bool) error) error {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = quantile(ds, 0.5)
	return nil
}

// loop runs op until the budget is spent: another operation starts only
// when the mean so far predicts it ends inside the budget, and at least one
// always runs. op returns the duration of the operation proper, which may
// leave out its own preparation and cleanup; loop returns those durations.
func loop(ctx context.Context, budget time.Duration, op func() (time.Duration, error)) ([]time.Duration, error) {
	var ds []time.Duration
	start := time.Now()
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return ds, fmt.Errorf("run budget exceeded: %w", err)
		}
		d, err := op()
		if err != nil {
			return ds, err
		}
		ds = append(ds, d)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > budget {
			return ds, nil
		}
	}
}

// budget converts the --seconds flag, split evenly over a run's phases.
func budget(o options, phases int) time.Duration {
	return time.Duration(o.seconds * float64(time.Second) / float64(phases))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading CPU time: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuMeter measures CPU utilisation of a worker budget over an interval.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func startCPU() (cpuMeter, error) {
	c, err := cpuTime()
	return cpuMeter{wall: time.Now(), cpu: c}, err
}

// util is process CPU ÷ (wall × workers) since the meter started.
func (m cpuMeter) util(workers int) (float64, error) {
	c, err := cpuTime()
	if err != nil {
		return 0, err
	}
	return (c - m.cpu).Seconds() / (time.Since(m.wall).Seconds() * float64(workers)), nil
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// setRSS records peak_rss_mb.
func (r *report) setRSS() error {
	mb, err := peakRSSMB()
	r.e2e["peak_rss_mb"] = mb
	return err
}
