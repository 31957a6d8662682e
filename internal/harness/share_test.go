package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mptcpsim/internal/runner"
)

// sharingIDs are the experiments that plot runs of a shared run family:
// Figs. 1(b,c)/9/10 (Scenario A), 5(c,d)/11/12 (Scenario C), 13(a,b)
// (FatTree long flows) and Fig. 14/Table III (FatTree short flows).
var sharingIDs = []string{
	"fig1b", "fig1c", "fig9", "fig10", "fig5c", "fig5d",
	"fig11", "fig12", "fig13a", "fig13b", "fig14", "table3",
}

// sharingIDsBorrowersFirst lists the same experiments with the views that
// read a subset of another's runs ahead of the experiment that sweeps the
// superset.
var sharingIDsBorrowersFirst = []string{
	"fig10", "table3", "fig1b", "fig13b", "fig12", "fig14",
	"fig5c", "fig9", "fig13a", "fig1c", "fig11", "fig5d",
}

// collectText renders each experiment through CollectResult — the
// unshared path — with the banner RunAll prints, keyed by ID, and returns
// the number of simulation jobs the collections scheduled.
func collectText(t *testing.T, cfg Config, ids []string) (map[string]string, int) {
	t.Helper()
	out := map[string]string{}
	jobs := 0
	for _, id := range ids {
		cfg := cfg
		tracker := trackJobs(&cfg)
		var b strings.Builder
		b.WriteString("\n===== " + id + " =====\n")
		if err := Get(id).Run(context.Background(), cfg, &b); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		done, total := tracker.last()
		if done != total {
			t.Errorf("%s: done %d of %d jobs", id, done, total)
		}
		out[id] = b.String()
		jobs += total
	}
	return out, jobs
}

// checkRunAllText runs RunAll over ids, checks that its output is each
// experiment's own text in listing order, and returns the call's final job
// counters.
func checkRunAllText(t *testing.T, cfg Config, ids []string, want map[string]string) (done, total int) {
	t.Helper()
	tracker := trackJobs(&cfg)
	var b strings.Builder
	if err := RunAll(context.Background(), cfg, ids, FormatText, &b); err != nil {
		t.Fatalf("RunAll(Workers=%d, %v): %v", cfg.Workers, ids, err)
	}
	got := b.String()
	for _, id := range ids {
		if !strings.HasPrefix(got, want[id]) {
			t.Fatalf("RunAll(Workers=%d, %v): %s differs from its own collection\n--- want ---\n%s--- got (from here) ---\n%s",
				cfg.Workers, ids, id, want[id], got)
		}
		got = got[len(want[id]):]
	}
	if got != "" {
		t.Fatalf("RunAll(Workers=%d): trailing output %q", cfg.Workers, got)
	}
	return tracker.last()
}

// TestRunAllSharedByteIdentical: under RunAll each distinct run of a shared
// family simulates once and every experiment reads it, whichever
// experiment claims it first — so each experiment's bytes equal its own
// unshared collection, in either listing order and at any worker count.
// The job counters count only the runs a call executes, finish every one
// of them, and start over on every call, while CollectResult still
// schedules every run of its experiment.
func TestRunAllSharedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	// Seeds 2, subflows {2}: Scenario A 9 cells × 2 algorithms × 2 seeds =
	// 36, Scenario C 8 × 2 × 2 = 32, FatTree long flows 3 points × 2 seeds
	// = 6 (Fig. 13(b)'s three base-seed runs are among them), short flows
	// 3 × 2 = 6.
	const distinct, unshared = 80, 225
	want, jobs := collectText(t, parallelConfig(4), sharingIDs)
	if jobs != unshared {
		t.Errorf("CollectResult jobs over the sharing set = %d, want %d", jobs, unshared)
	}
	for _, run := range []struct {
		workers int
		ids     []string
	}{{1, sharingIDs}, {4, sharingIDsBorrowersFirst}} {
		if done, total := checkRunAllText(t, parallelConfig(run.workers), run.ids, want); total != distinct || done != total {
			t.Errorf("RunAll(Workers=%d) jobs: done %d of %d, want %d of %d", run.workers, done, total, distinct, distinct)
		}
	}
}

// TestRunAllSharedGolden locks the shared path at the golden configuration:
// a RunAll of the sharing experiments prints exactly their committed
// snapshots (TestGoldenText checks the unshared CollectResult path) and
// executes each distinct run once.
func TestRunAllSharedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	want := map[string]string{}
	for _, id := range sharingIDs {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = "\n===== " + id + " =====\n" + string(b)
	}
	// Golden config (2 seeds, subflows {2,3}): Scenario A 36, Scenario C
	// 32, FatTree long flows (tcp + 2 algorithms × 2 subflow counts) × 2
	// seeds = 10, short flows 6. Unshared, the same experiments schedule
	// 229.
	if done, total := checkRunAllText(t, goldenConfig(), sharingIDs, want); total != 84 || done != total {
		t.Errorf("golden RunAll jobs: done %d of %d, want 84 of 84", done, total)
	}
}

// jobTracker keeps the last EventJobs counters of a call.
type jobTracker struct {
	mu          sync.Mutex
	done, total int
}

func (j *jobTracker) last() (done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done, j.total
}

// trackJobs installs a progress sink on cfg recording its job counters.
func trackJobs(cfg *Config) *jobTracker {
	j := &jobTracker{}
	SetProgress(cfg, func(ev Event) {
		if ev.Kind == EventJobs {
			j.mu.Lock()
			j.done, j.total = ev.JobsDone, ev.JobsTotal
			j.mu.Unlock()
		}
	})
	return j
}

// sharedProbeRuns is a test-only run family whose run at point 2 panics.
var sharedProbeRuns = &runFamily[int, int]{run: func(cfg Config, p int, seed int64) int {
	if p == 2 {
		panic("shared run crash")
	}
	return p
}}

// registerSharedPanicProbes installs two experiments that sweep
// overlapping points of sharedProbeRuns, both covering the crashing one.
func registerSharedPanicProbes() {
	if Get("zz-shared-a") != nil {
		return
	}
	for _, probe := range []struct {
		id  string
		pts []int
	}{{"zz-shared-a", []int{0, 1, 2}}, {"zz-shared-b", []int{1, 2, 3}}} {
		register(&Experiment{
			ID: probe.id, PaperRef: "test", Title: "crashing shared run probe",
			Collect: func(cfg Config) (*Result, error) {
				sharedProbeRuns.sweep(cfg, probe.pts)
				return &Result{Preamble: []string{"shared probe"}}, nil
			},
		})
	}
}

// TestRunAllSharedRunPanic: a shared run that panics fails every
// experiment that plots it — the owner and the borrowers alike, with the
// typed panic error, never with rendered zeros — while unrelated
// experiments complete and no goroutine leaks.
func TestRunAllSharedRunPanic(t *testing.T) {
	registerSharedPanicProbes()
	ids := []string{"fig4a", "zz-shared-a", "zz-shared-b", "fig4b"}
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		cfg := parallelConfig(workers)
		var mu sync.Mutex
		errs := map[string]error{}
		SetProgress(&cfg, func(ev Event) {
			if ev.Kind == EventExperimentDone {
				mu.Lock()
				errs[ev.Experiment] = ev.Err
				mu.Unlock()
			}
		})
		var b strings.Builder
		err := RunAll(context.Background(), cfg, ids, FormatText, &b)
		if !errors.Is(err, runner.ErrJobPanic) || !strings.Contains(err.Error(), "harness: zz-shared-a") {
			t.Fatalf("Workers=%d: RunAll err = %v, want zz-shared-a's runner.ErrJobPanic", workers, err)
		}
		for _, id := range ids {
			crash := strings.HasPrefix(id, "zz-")
			if got := errs[id]; crash != errors.Is(got, runner.ErrJobPanic) || !crash && got != nil {
				t.Errorf("Workers=%d: %s finished with err %v (want panic error: %v)", workers, id, got, crash)
			}
		}
		if !strings.Contains(b.String(), "===== fig4a =====") {
			t.Errorf("Workers=%d: unrelated experiment output missing:\n%s", workers, b.String())
		}
		waitForGoroutines(t, before)
	}
}
