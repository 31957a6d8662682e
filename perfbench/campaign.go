package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mptcpsim"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/scenario"
)

// population is the campaign both campaign workloads run: the default
// dual-LTE population widened to every controller and scheduler, with
// half of the users moving a finite 200 kB or 1 MB transfer.
func population(seed int64, n int) mptcpsim.CampaignSpec {
	sp := *mptcpsim.DefaultCampaign()
	sp.Name = "perfbench"
	sp.N = n
	sp.Seed = seed
	sp.Algorithms = mptcpsim.Algorithms()
	sp.FlowBytes = mptcpsim.DistChoice(0, 0, 2e5, 1e6)
	sp.Schedulers = mptcpsim.Schedulers()
	return sp
}

// coldWarmupN is the size of the campaign-cold set-up's warm-up campaign.
const coldWarmupN = 64

// sampler is the spec SampleSpec is called on to reproduce what
// Lab.Campaign samples: the campaign runs a zero seed as its default, 1.
func sampler(sp mptcpsim.CampaignSpec) *campaign.Spec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return &sp
}

// coldCounts are the exact simulated counts of one campaign pass; a change
// that only makes the simulator faster leaves every one of them unchanged.
type coldCounts struct {
	Digest       string `json:"digest"`
	Events       int64  `json:"sim.events"`
	SentPkts     int64  `json:"tcp.sent_pkts"`
	Timeouts     int64  `json:"tcp.timeouts"`
	Drops        int64  `json:"netem.drops"`
	Completions  int64  `json:"mptcp.completions"`
	CacheEntries int64  `json:"campaign.cache_entries"`
}

// scenarioSample is what the traced replay measures for one index.
type scenarioSample struct {
	sample, key, compile, run time.Duration
	events, sent, timeouts    int64
	drops, goodputBytes       int64
	completed                 bool
	completionSec             float64
}

// coldBench is the campaign-cold workload's state after set-up.
type coldBench struct {
	o    options
	rep  *report
	lab  *mptcpsim.Lab
	spec mptcpsim.CampaignSpec
	// digest is the first pass's Result digest; every later pass must
	// reproduce it. counts are the first traced pass's exact counts.
	digest string
	counts *coldCounts
	// events is the last campaign's events_processed aggregate, which the
	// replay that follows it must reproduce.
	events *mptcpsim.CampaignAggregate
	// campaignCPU and campaignWall accumulate over the untraced
	// Lab.Campaign calls, for the runner's CPU utilisation.
	campaignCPU, campaignWall time.Duration
}

// runCold runs the fixed population with Lab.Campaign into an empty cache
// directory, pass after pass, checking each Result. The traced run also
// replays every sampled index from outside, with spans around SampleSpec,
// CacheKey, Compile and Run.
func runCold(ctx context.Context, o options, rep *report, rec *recorder) error {
	c := &coldBench{o: o, rep: rep}
	// Set-up ends with a small cold campaign of the same population, so
	// that lazy first-use costs are paid before timing. Its seed is fixed:
	// every run sets up identically.
	err := rep.timeSetup(o.scale.cheapSetups, func(bool) error {
		c.lab = mptcpsim.NewLab(mptcpsim.WithWorkers(o.workers))
		warm := population(1, coldWarmupN)
		dir, err := os.MkdirTemp(o.work, "warmup-*")
		if err != nil {
			return fmt.Errorf("creating cache directory: %w", err)
		}
		defer os.RemoveAll(dir)
		warm.CacheDir = dir
		if _, err := c.lab.Campaign(ctx, warm); err != nil {
			return err
		}
		c.spec = population(o.seed, o.scale.coldN)
		return nil
	})
	if err != nil {
		return err
	}
	if rec == nil {
		ops, err := loop(ctx, budget(o, 1), func() (time.Duration, error) {
			d, _, err := c.campaign(ctx, nil, false)
			return d, err
		})
		if err != nil {
			return err
		}
		rep.setLatency(ops, perOp(ops, c.spec.N))
		c.guard(false)
		return rep.setRSS()
	}

	var campaigns []time.Duration
	plain, err := loop(ctx, budget(o, 2), func() (time.Duration, error) {
		t0 := time.Now()
		d, _, err := c.campaign(ctx, nil, false)
		if err == nil {
			campaigns = append(campaigns, d)
			_, err = c.replay(ctx, nil)
		}
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	rep.setLatency(campaigns, perOp(campaigns, c.spec.N))
	if err := rep.setRSS(); err != nil {
		return err
	}
	rep.layer["runner.cpu_util"] = c.campaignCPU.Seconds() / (c.campaignWall.Seconds() * float64(o.workers))

	var campaignWall time.Duration
	var samples []scenarioSample
	var entries, entryBytes int64
	traced, err := loop(ctx, budget(o, 2), func() (time.Duration, error) {
		t0 := time.Now()
		d, cached, err := c.campaign(ctx, rec, true)
		if err != nil {
			return 0, err
		}
		campaignWall, entries, entryBytes = d, cached.entries, cached.bytes
		samples, err = c.replay(ctx, rec)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	rep.layer["trace.overhead_frac"] = meanDur(traced).Seconds()/meanDur(plain).Seconds() - 1
	rep.layer["campaign.cache_entries"] = float64(entries)
	rep.layer["campaign.cache_kb"] = float64(entryBytes) / 1024
	c.setLayers(samples, campaignWall)
	allocs, err := c.allocsPerRun(ctx)
	if err != nil {
		return err
	}
	rep.layer["scenario.allocs_per_run"] = allocs
	c.guard(true)
	return nil
}

// cacheStats describes a cache directory's entries.
type cacheStats struct {
	entries, bytes int64
}

// campaign is one cold Lab.Campaign into a fresh cache directory, checked
// for errors, violations, cache use and digest stability. It returns the
// call's wall time, and with walk set the cache directory's contents.
func (c *coldBench) campaign(ctx context.Context, rec *recorder, walk bool) (time.Duration, cacheStats, error) {
	var cs cacheStats
	dir, err := os.MkdirTemp(c.o.work, "cold-*")
	if err != nil {
		return 0, cs, fmt.Errorf("creating cache directory: %w", err)
	}
	defer os.RemoveAll(dir)
	sp := c.spec
	sp.CacheDir = dir
	cpu0, err := cpuTime()
	if err != nil {
		return 0, cs, err
	}
	t0 := time.Now()
	res, runErr := c.lab.Campaign(ctx, sp)
	t1 := time.Now()
	cpu1, err := cpuTime()
	if err != nil {
		return 0, cs, err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return 0, cs, fmt.Errorf("run budget exceeded: %w", ctxErr)
	}
	if rec == nil {
		c.campaignCPU += cpu1 - cpu0
		c.campaignWall += t1.Sub(t0)
	}
	rec.add(-1, "campaign", fmt.Sprintf("seed%d", c.o.seed), t0, t1, nil)
	if runErr != nil {
		c.rep.check(false, "campaign: %v", runErr)
		return t1.Sub(t0), cs, nil
	}
	for i := range res.Aggregates {
		if res.Aggregates[i].Metric == "events_processed" {
			c.events = &res.Aggregates[i]
		}
	}
	digest := res.Digest()
	if c.digest == "" {
		c.digest = digest
	}
	c.rep.check(res.Violations == 0 && res.Simulated == sp.N && res.CacheHits == 0 && digest == c.digest,
		"campaign: %d violations (%v), %d simulated, %d cache hits, digest %s (first pass %s)",
		res.Violations, res.Flagged, res.Simulated, res.CacheHits, digest, c.digest)
	if walk {
		cs, err = walkCache(dir)
		if err != nil {
			return 0, cs, err
		}
	}
	return t1.Sub(t0), cs, nil
}

// walkCache counts the result files under a cache directory.
func walkCache(dir string) (cacheStats, error) {
	var cs cacheStats
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		cs.entries++
		cs.bytes += info.Size()
		return nil
	})
	if err != nil {
		return cs, fmt.Errorf("walking cache directory: %w", err)
	}
	return cs, nil
}

// replay runs every sampled index the way the campaign engine does —
// SampleSpec, CacheKey, then the scenario's Compile and Run — on as many
// goroutines as there are workers, timing each call. With a recorder each
// index gets a "scenario" span with one child per call, the run span
// carrying the report's counts.
func (c *coldBench) replay(ctx context.Context, rec *recorder) ([]scenarioSample, error) {
	sp := sampler(c.spec)
	version := mptcpsim.Version()
	out := make([]scenarioSample, sp.N)
	errs := make([]error, c.o.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= sp.N {
					return
				}
				if errs[w] = replayOne(ctx, rec, sp, version, i, &out[i]); errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	c.checkCounts(out)
	return out, nil
}

// replayOne samples, keys, compiles and runs scenario i into s.
func replayOne(ctx context.Context, rec *recorder, sp *campaign.Spec, version string, i int, s *scenarioSample) error {
	t0 := time.Now()
	spec := sp.SampleSpec(i)
	t1 := time.Now()
	_, err := campaign.CacheKey(version, spec)
	t2 := time.Now()
	if err != nil {
		return err
	}
	if _, err := scenario.Compile(spec); err != nil {
		return fmt.Errorf("compiling scenario %d: %w", i, err)
	}
	t3 := time.Now()
	rep, err := scenario.Run(ctx, spec)
	t4 := time.Now()
	if err != nil {
		return fmt.Errorf("running scenario %d: %w", i, err)
	}
	*s = scenarioSample{sample: t1.Sub(t0), key: t2.Sub(t1), compile: t3.Sub(t2), run: t4.Sub(t3),
		events: int64(rep.Processed)}
	for _, f := range rep.Flows {
		s.sent += f.SentPkts
		s.timeouts += f.Timeouts
		s.goodputBytes += f.GoodputBytes
		if f.Stream != nil && f.Stream.Done {
			s.completed = true
			s.completionSec = f.Stream.CompletionSec
		}
	}
	for _, q := range rep.Queues {
		s.drops += q.Total.DroppedPkts + q.LossDropped
	}
	if rec == nil {
		return nil
	}
	req := fmt.Sprintf("s%d", i)
	root := rec.add(-1, "scenario", req, t0, t4, nil)
	rec.add(root, "sample", req, t0, t1, nil)
	rec.add(root, "cachekey", req, t1, t2, nil)
	rec.add(root, "compile", req, t2, t3, nil)
	rec.add(root, "run", req, t3, t4, map[string]int64{
		"events": s.events, "sent_pkts": s.sent, "timeouts": s.timeouts, "drops": s.drops,
		"goodput_bytes": s.goodputBytes,
	})
	return nil
}

// totals sums a pass's exact counts.
func totals(ss []scenarioSample) coldCounts {
	var t coldCounts
	for _, s := range ss {
		t.Events += s.events
		t.SentPkts += s.sent
		t.Timeouts += s.timeouts
		t.Drops += s.drops
		if s.completed {
			t.Completions++
		}
	}
	return t
}

// checkCounts requires a replay to reproduce the first replay's exact
// counts and the event total of the campaign it replays.
func (c *coldBench) checkCounts(ss []scenarioSample) {
	t := totals(ss)
	if c.counts == nil {
		c.counts = &t
	}
	c.rep.check(t == *c.counts && c.events != nil && eventsAgree(t.Events, *c.events),
		"replay counts %+v differ from the first replay's %+v or from the campaign's events %+v",
		t, *c.counts, c.events)
}

// setLayers derives the per-layer metrics from the last traced replay.
func (c *coldBench) setLayers(ss []scenarioSample, campaignWall time.Duration) {
	sampleUs := make([]float64, len(ss))
	keyUs := make([]float64, len(ss))
	compileUs := make([]float64, len(ss))
	runMs := make([]float64, len(ss))
	var completion []float64
	var runSum, compileSum time.Duration
	var goodput int64
	for i, s := range ss {
		sampleUs[i] = float64(s.sample) / 1e3
		keyUs[i] = float64(s.key) / 1e3
		compileUs[i] = float64(s.compile) / 1e3
		runMs[i] = float64(s.run) / 1e6
		runSum += s.run
		compileSum += s.compile
		goodput += s.goodputBytes
		if s.completed {
			completion = append(completion, s.completionSec)
		}
	}
	t := totals(ss)
	l := c.rep.layer
	l["campaign.sample_us"] = quantile(sampleUs, 0.5)
	l["campaign.cachekey_us"] = quantile(keyUs, 0.5)
	l["scenario.compile_us"] = quantile(compileUs, 0.5)
	l["scenario.run_ms_p50"] = quantile(runMs, 0.5)
	l["scenario.run_ms_p99"] = quantile(runMs, 0.99)
	// scenario.Run compiles the scenario itself, so the time left after
	// the separately timed Compile is the event loop and the report.
	l["sim.ns_per_event"] = float64(runSum-compileSum) / float64(t.Events)
	l["sim.events"] = float64(t.Events)
	l["sim.events_per_s"] = float64(t.Events) / campaignWall.Seconds()
	l["tcp.sent_pkts"] = float64(t.SentPkts)
	l["tcp.timeouts"] = float64(t.Timeouts)
	l["tcp.goodput_per_sent"] = float64(goodput) / (float64(t.SentPkts) * netem.MSS)
	l["netem.drops"] = float64(t.Drops)
	l["mptcp.completions"] = float64(t.Completions)
	l["mptcp.completion_s_p50"] = quantile(completion, 0.5)
	l["campaign.overhead_frac"] = 1 - runSum.Seconds()/(float64(c.o.workers)*campaignWall.Seconds())
	c.rep.note("compile share of run time: %.2f%%", 100*compileSum.Seconds()/runSum.Seconds())
}

// allocsPerRun is the mean heap allocation count of scenario.Run over the
// first indices, run one at a time so the deltas are the run's own.
func (c *coldBench) allocsPerRun(ctx context.Context) (float64, error) {
	sp := sampler(c.spec)
	n := min(sp.N, 64)
	var total uint64
	for i := 0; i < n; i++ {
		spec := sp.SampleSpec(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := scenario.Run(ctx, spec); err != nil {
			return 0, fmt.Errorf("running scenario %d: %w", i, err)
		}
		runtime.ReadMemStats(&m1)
		total += m1.Mallocs - m0.Mallocs
	}
	return float64(total) / float64(n), nil
}

// guard states whether the pass reproduced the counts recorded for this
// seed; the untraced run has only the digest to compare.
func (c *coldBench) guard(traced bool) {
	if !c.o.scale.guarded {
		return
	}
	want, ok := recordedValues().Cold[c.o.seed]
	if !ok {
		c.rep.note("guard: no counts recorded for seed %d", c.o.seed)
		return
	}
	got := coldCounts{Digest: c.digest}
	if traced && c.counts != nil {
		got = *c.counts
		got.Digest = c.digest
		got.CacheEntries = int64(c.rep.layer["campaign.cache_entries"])
	} else {
		want = coldCounts{Digest: want.Digest}
	}
	if got != want {
		c.rep.layer["guard.counts_differ"] = float64(countDiffs(got, want))
		c.rep.note("guard: counts %+v DIFFER from the recorded %+v", got, want)
		return
	}
	c.rep.note("guard: digest and counts match the values recorded for seed %d: %+v", c.o.seed, got)
}

// countDiffs is how many fields of two count records differ.
func countDiffs(a, b coldCounts) int {
	n := 0
	for _, d := range []bool{a.Digest != b.Digest, a.Events != b.Events, a.SentPkts != b.SentPkts,
		a.Timeouts != b.Timeouts, a.Drops != b.Drops, a.Completions != b.Completions,
		a.CacheEntries != b.CacheEntries} {
		if d {
			n++
		}
	}
	return n
}

// eventsAgree reports whether the replay's event total matches the
// campaign aggregate's mean × count up to float rounding.
func eventsAgree(events int64, agg mptcpsim.CampaignAggregate) bool {
	want := agg.Mean * float64(agg.Count)
	return math.Abs(want-float64(events)) <= 1e-9*want
}
