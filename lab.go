package mptcpsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"mptcpsim/internal/campaign"
	"mptcpsim/internal/core"
	"mptcpsim/internal/harness"
	"mptcpsim/internal/scenario"
	"mptcpsim/internal/stats"
)

// ProgressKind enumerates the structured progress notifications a Lab
// emits while a context-aware call runs.
type ProgressKind int

const (
	// ProgressExperimentStarted fires when an experiment begins collecting.
	ProgressExperimentStarted ProgressKind = iota
	// ProgressExperimentFinished fires when an experiment completes (Err is
	// set if it failed).
	ProgressExperimentFinished
	// ProgressJobs fires when the call's cumulative job counters change:
	// simulation jobs for Collect/RunAll, scenarios for Fuzz, cases for
	// Conform. Total grows as work is discovered, Done as workers finish.
	ProgressJobs
)

// ProgressEvent is one structured notification from a running Lab call.
type ProgressEvent struct {
	// Kind is the event type.
	Kind ProgressKind
	// Experiment is the experiment ID, on experiment-scoped events.
	Experiment string
	// Err is the failure, on ProgressExperimentFinished events.
	Err error
	// Done and Total are the call's cumulative job counters, on
	// ProgressJobs events.
	Done, Total int
}

// Lab is the simulation engine behind the public API: one configured
// instance exposing every long-running entry point as a context-aware
// method. Construct it once with functional options, then issue calls —
// the Lab itself is stateless between calls and safe for concurrent use;
// cancellation is per-call via the context, and progress streaming is
// per-Lab via WithProgress.
//
//	lab := mptcpsim.NewLab(
//		mptcpsim.WithConfig(mptcpsim.FullConfig()),
//		mptcpsim.WithWorkers(8),
//		mptcpsim.WithProgress(func(ev mptcpsim.ProgressEvent) { ... }),
//	)
//	err := lab.RunAll(ctx, nil, mptcpsim.FormatText, os.Stdout)
type Lab struct {
	cfg      Config
	watchdog time.Duration
	progress func(ProgressEvent)
	mu       sync.Mutex // serializes progress delivery
}

// Option configures a Lab at construction.
type Option func(*Lab)

// WithConfig sets the harness configuration (DefaultConfig if omitted).
func WithConfig(cfg Config) Option {
	return func(l *Lab) { l.cfg = cfg }
}

// WithWorkers bounds how many simulation jobs run concurrently across any
// one call: 0 selects GOMAXPROCS, 1 forces sequential execution. Results
// are byte-identical for any worker count.
func WithWorkers(n int) Option {
	return func(l *Lab) { l.cfg.Workers = n }
}

// WithSeed anchors the deterministic RNG chain every simulation job's seed
// derives from.
func WithSeed(seed int64) Option {
	return func(l *Lab) { l.cfg.BaseSeed = seed }
}

// WithProgress installs a progress sink. Delivery is serialized: every
// event — from any worker goroutine, in any concurrent call on the Lab —
// passes through one Lab-held lock around fn, so fn never runs twice at
// once and needs no locking of its own to maintain counters or write to a
// stream. The flip side: fn runs on worker goroutines and stalls them
// while it executes, so it must not block and must not call back into the
// Lab.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(l *Lab) { l.progress = fn }
}

// WithWatchdog bounds each Lab.Run call to d of wall-clock time (default
// off). A scenario that exceeds the budget — a runaway timeline, a spec far
// larger than intended — is abandoned at the next one-second virtual-time
// boundary with an ErrWatchdog error instead of hanging the caller. The
// watchdog never perturbs a run that finishes in time: runs are exact at
// the probed boundaries, so output stays byte-identical with or without it.
func WithWatchdog(d time.Duration) Option {
	return func(l *Lab) { l.watchdog = d }
}

// NewLab builds an engine from the options, starting from DefaultConfig.
func NewLab(opts ...Option) *Lab {
	l := &Lab{cfg: DefaultConfig()}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Config returns the Lab's effective configuration.
func (l *Lab) Config() Config { return l.cfg }

// emit delivers one progress event, serialized.
func (l *Lab) emit(ev ProgressEvent) {
	if l.progress == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.progress(ev)
}

// jobsProgress adapts a (done, total) campaign counter to the sink.
func (l *Lab) jobsProgress() func(done, total int) {
	if l.progress == nil {
		return nil
	}
	return func(done, total int) {
		l.emit(ProgressEvent{Kind: ProgressJobs, Done: done, Total: total})
	}
}

// instrumented returns the Lab's config with the progress bridge installed.
func (l *Lab) instrumented() Config {
	cfg := l.cfg
	if l.progress != nil {
		harness.SetProgress(&cfg, func(ev harness.Event) {
			switch ev.Kind {
			case harness.EventExperimentStart:
				l.emit(ProgressEvent{Kind: ProgressExperimentStarted, Experiment: ev.Experiment})
			case harness.EventExperimentDone:
				// Classify before emitting so sinks can errors.Is-match the
				// event's Err exactly like the method's returned error.
				l.emit(ProgressEvent{Kind: ProgressExperimentFinished, Experiment: ev.Experiment,
					Err: classify("collect", ev.Experiment, ev.Err)})
			case harness.EventJobs:
				l.emit(ProgressEvent{Kind: ProgressJobs, Done: ev.JobsDone, Total: ev.JobsTotal})
			}
		})
	}
	return cfg
}

// validConfig tags a rejected configuration with ErrInvalidConfig.
func (l *Lab) validConfig(op string) error {
	if err := l.cfg.Validate(); err != nil {
		return apiErr(op, "", ErrInvalidConfig, err)
	}
	return nil
}

// Collect regenerates one table or figure by ID (e.g. "fig9", "table3")
// and returns its structured Result. Independent simulation jobs (sweep
// points × seeds) run concurrently on the Lab's worker budget; the Result
// is identical for any worker count. Collect shares no simulation with
// other calls: every job of the experiment runs. Cancelling ctx stops the collection
// at the next job boundary with an ErrCanceled error.
func (l *Lab) Collect(ctx context.Context, id string) (*Result, error) {
	const op = "collect"
	e := harness.Get(id)
	if e == nil {
		return nil, apiErr(op, id, ErrUnknownExperiment, knownExperimentsErr())
	}
	if err := l.validConfig(op); err != nil {
		return nil, err
	}
	l.emit(ProgressEvent{Kind: ProgressExperimentStarted, Experiment: id})
	r, err := e.CollectResult(ctx, l.instrumented())
	err = classify(op, id, err)
	l.emit(ProgressEvent{Kind: ProgressExperimentFinished, Experiment: id, Err: err})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// RunAll regenerates the experiments with the given IDs — the full
// registry in paper order when ids is empty — writing each experiment's
// rendered result to w in listing order: text streams banner+table per
// experiment, json one array of Result objects, csv one
// blank-line-separated block per experiment. All experiments share one
// pool of workers, and each distinct simulation runs once per call even
// when several experiments plot it (Figs. 1(b)/1(c)/9/10, for instance,
// read the same Scenario A runs); nothing is kept for the next call. The
// bytes are identical to running the experiments one at a time with
// Collect, which shares nothing, at any worker count. Cancelling ctx
// stops every experiment at the next simulation-job boundary, flushes the
// experiments that already completed, and returns an ErrCanceled error.
func (l *Lab) RunAll(ctx context.Context, ids []string, format Format, w io.Writer) error {
	const op = "run-all"
	if _, err := ParseFormat(string(format)); err != nil {
		return apiErr(op, "", ErrInvalidConfig, err)
	}
	if err := l.validConfig(op); err != nil {
		return err
	}
	for _, id := range ids {
		if harness.Get(id) == nil {
			return apiErr(op, id, ErrUnknownExperiment, knownExperimentsErr())
		}
	}
	return classify(op, "", harness.RunAll(ctx, l.instrumented(), ids, format, w))
}

// Run validates, compiles and executes a declarative scenario, measuring
// goodput over [Warmup, Warmup+Duration] and checking the
// packet-conservation, capacity, monotonicity and queue-bound invariants.
// Cancelling ctx abandons the simulation at a one-second virtual-time
// boundary with an ErrCanceled error; a WithWatchdog budget expiring does
// the same with an ErrWatchdog error.
func (l *Lab) Run(ctx context.Context, spec ScenarioSpec) (*ScenarioReport, error) {
	const op = "run"
	if err := spec.Validate(); err != nil {
		return nil, apiErr(op, spec.Name, ErrInvalidSpec, err)
	}
	runCtx := ctx
	if l.watchdog > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, l.watchdog)
		defer cancel()
	}
	rep, err := scenario.Run(runCtx, &spec)
	if err != nil {
		// The watchdog firing shows up as the run context's deadline with
		// the caller's own context still live.
		if l.watchdog > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			return nil, apiErr(op, spec.Name, ErrWatchdog, err)
		}
		return nil, classify(op, spec.Name, err)
	}
	return rep, nil
}

// Fuzz generates opts.N seeded random scenarios and runs each twice: once
// under the full invariant suite and once more to verify the run is
// byte-identical. The campaign is deterministic per seed; any failure
// replays from its index alone. A zero opts.Workers inherits the Lab's
// worker budget. Cancelling ctx stops the campaign at the next scenario
// boundary with an ErrCanceled error.
func (l *Lab) Fuzz(ctx context.Context, opts FuzzOptions) (*FuzzReport, error) {
	const op = "fuzz"
	if opts.Workers == 0 {
		opts.Workers = l.cfg.Workers
	}
	if opts.Progress == nil {
		opts.Progress = l.jobsProgress()
	}
	rep, err := scenario.Fuzz(ctx, opts)
	if err != nil {
		return nil, classify(op, "", err)
	}
	return rep, nil
}

// Campaign samples spec.N scenarios from the campaign's parameter
// distributions — scenario i is a pure function of (spec, i) — runs each
// on the Lab's worker budget, and folds every report through streaming
// aggregators (count, mean/variance, deterministic quantile sketch), so
// memory stays O(workers) at any campaign size. With spec.CacheDir set,
// completed runs are kept in a content-addressed cache keyed by
// (Version(), sampled scenario); a fully cached re-run performs zero
// simulations and reproduces the cold Result byte for byte. The Result —
// including its Digest — is byte-identical at any worker count.
// Cancelling ctx stops the campaign at the next scenario boundary with an
// ErrCanceled error; completed runs stay cached, so a canceled campaign
// resumes incrementally.
func (l *Lab) Campaign(ctx context.Context, spec CampaignSpec) (*CampaignResult, error) {
	const op = "campaign"
	if err := spec.Validate(); err != nil {
		return nil, apiErr(op, spec.Name, ErrInvalidSpec, err)
	}
	res, err := campaign.Run(ctx, &spec, campaign.Options{
		Workers:  l.cfg.Workers,
		Version:  Version(),
		Progress: l.jobsProgress(),
	})
	if err != nil {
		return nil, classify(op, spec.Name, err)
	}
	return res, nil
}

// Conform cross-checks the packet-level simulator against the paper's
// fluid model and fixed points: on 3- and 4-path topologies the
// steady-state per-path goodput shares of OLIA, LIA and uncoupled
// multipath flows must match the fluid equilibrium within the documented
// tolerance, and a scenario-A run must match the Appendix-A LIA fixed
// point. A zero opts.Workers inherits the Lab's worker budget. Cancelling
// ctx stops the suite at the next case boundary with an ErrCanceled error.
func (l *Lab) Conform(ctx context.Context, opts ConformanceOptions) (*ConformanceReport, error) {
	const op = "conform"
	if opts.Workers == 0 {
		opts.Workers = l.cfg.Workers
	}
	if opts.Progress == nil {
		opts.Progress = l.jobsProgress()
	}
	rep, err := scenario.RunConformance(ctx, opts)
	if err != nil {
		return nil, classify(op, "", err)
	}
	return rep, nil
}

// Analyze evaluates the paper's loss-throughput fixed points for a user
// with the given per-path loss probabilities (in (0, 1)) and RTTs (positive
// and finite, seconds), without simulation. MSS is 1500 B.
func (l *Lab) Analyze(loss, rtts []float64) (TwoPathAnalysis, error) {
	const op = "analyze"
	if len(loss) != len(rtts) || len(loss) == 0 {
		return TwoPathAnalysis{}, apiErr(op, "", ErrInvalidSpec,
			fmt.Errorf("need matching non-empty loss and rtt slices (%d vs %d)", len(loss), len(rtts)))
	}
	for i := range loss {
		// The negated comparisons also reject NaN.
		if !(loss[i] > 0 && loss[i] < 1) || !(rtts[i] > 0) || math.IsInf(rtts[i], 1) {
			return TwoPathAnalysis{}, apiErr(op, "", ErrInvalidSpec,
				fmt.Errorf("loss must lie in (0, 1) and rtt be positive and finite (path %d: p=%g rtt=%g)", i, loss[i], rtts[i]))
		}
	}
	var out TwoPathAnalysis
	var best float64
	for i := range loss {
		if r := core.TCPRate(loss[i], rtts[i]); r > best {
			best = r
		}
	}
	out.TCPBestMbps = stats.PktsPerSecMbps(best)
	for _, r := range core.LIARates(loss, rtts) {
		out.LIAMbps = append(out.LIAMbps, stats.PktsPerSecMbps(r))
	}
	for _, r := range core.OLIARates(loss, rtts) {
		out.OLIAMbps = append(out.OLIAMbps, stats.PktsPerSecMbps(r))
	}
	return out, nil
}

// knownExperimentsErr lists the registry for unknown-experiment errors.
func knownExperimentsErr() error { return fmt.Errorf("have %v", harness.IDs()) }
