package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"mptcpsim/internal/runner"
)

// RunAll regenerates the experiments with the given ids — the full registry
// in paper order when ids is empty — writing each experiment's rendered
// result to w in listing order. Text output prints each experiment's banner
// and table; JSON output is one array of Result objects; CSV output is one
// blank-line-separated block per experiment.
//
// Experiments run concurrently (one orchestration goroutine each) and
// their simulation jobs share one worker pool, so at most cfg.Workers
// simulations execute at any moment no matter how the fan-out nests.
// Experiments also share simulations: each distinct run of a run family
// (one Scenario A or C cell, one FatTree run, at one seed) executes once
// per call and every experiment that plots it reads its value, so
// progress totals count distinct runs. Nothing is kept between calls, and
// CollectResult shares nothing.
//
// Each experiment collects and renders into its own buffer, and buffers are
// flushed progressively: experiment i's output appears as soon as
// experiments 0..i have finished, so a long registry run streams results
// as they complete while the bytes remain identical to a sequential run.
//
// On failure every experiment still runs to completion, the output up to
// the first failing experiment (in listing order) is written, and that
// experiment's error is returned.
//
// Cancelling ctx stops every experiment's simulation jobs at the next job
// boundary; RunAll then drains its orchestration goroutines (no leaks),
// flushes the experiments that had already completed in listing order, and
// returns an error wrapping ctx.Err().
func RunAll(ctx context.Context, cfg Config, ids []string, format Format, w io.Writer) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if _, err := ParseFormat(string(format)); err != nil {
		return err
	}
	var exps []*Experiment
	if len(ids) == 0 {
		exps = Experiments()
	} else {
		for _, id := range ids {
			e := Get(id)
			if e == nil {
				return fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
			}
			exps = append(exps, e)
		}
	}
	cfg.pool = runner.New(cfg.Workers)
	cfg.jobs = cfg.newJobCounter() // one cumulative counter across every experiment
	cfg.runs = newRunTable()       // dropped with cfg when the call returns
	type outcome struct {
		buf bytes.Buffer
		err error
	}
	res := make([]outcome, len(exps))
	done := make([]chan struct{}, len(exps))
	for i := range exps {
		done[i] = make(chan struct{})
		go func(i int) {
			defer close(done[i])
			cfg.emit(Event{Kind: EventExperimentStart, Experiment: exps[i].ID})
			r, err := exps[i].CollectResult(ctx, cfg)
			defer func() { cfg.emit(Event{Kind: EventExperimentDone, Experiment: exps[i].ID, Err: res[i].err}) }()
			if err != nil {
				res[i].err = err
				if format == FormatText {
					// Match the classic stream: a failing experiment still
					// contributes its banner before the error surfaces.
					fmt.Fprintf(&res[i].buf, "\n===== %s =====\n", exps[i].ID)
				}
				return
			}
			switch format {
			case FormatJSON:
				b, err := json.MarshalIndent(r, "  ", "  ")
				if err != nil {
					res[i].err = err
					return
				}
				res[i].buf.WriteString("  ")
				res[i].buf.Write(b)
			case FormatCSV:
				res[i].err = RenderCSV(r, &res[i].buf)
			case FormatText, "":
				fmt.Fprintf(&res[i].buf, "\n===== %s =====\n", exps[i].ID)
				res[i].err = RenderText(r, &res[i].buf)
			}
		}(i)
	}
	var firstErr error
	flushed := 0
	if format == FormatJSON {
		if _, err := io.WriteString(w, "[\n"); err != nil {
			firstErr = err
		}
	}
	for i := range exps {
		<-done[i]
		if firstErr != nil {
			continue // already failed: drain remaining experiments unwritten
		}
		if res[i].err != nil {
			// Text keeps the classic contract of flushing the failing
			// experiment's banner before erroring out.
			if format == FormatText {
				w.Write(res[i].buf.Bytes())
			}
			firstErr = fmt.Errorf("harness: %s: %w", exps[i].ID, res[i].err)
			continue
		}
		var sep string
		switch format {
		case FormatJSON:
			if flushed > 0 {
				sep = ",\n"
			}
		case FormatCSV:
			if flushed > 0 {
				sep = "\n"
			}
		case FormatText, "":
			// Text banners carry their own leading newline.
		}
		if sep != "" {
			if _, err := io.WriteString(w, sep); err != nil {
				firstErr = err
				continue
			}
		}
		if _, err := w.Write(res[i].buf.Bytes()); err != nil {
			firstErr = err
			continue
		}
		flushed++
	}
	if format == FormatJSON {
		// Close the array even on failure so the flushed prefix remains
		// valid JSON (an array of the experiments that completed).
		if _, err := io.WriteString(w, "\n]\n"); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
