package scenario

import (
	"context"
	"errors"
	"testing"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
)

// TestMeasure checks the measured window against an independent probe: a
// snapshot taken by an At(warm-up) event of the test's own must, subtracted
// from the end-of-run values, give exactly the window Measure reports.
func TestMeasure(t *testing.T) {
	sp := twoPathSpec()
	n, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	var probeBytes [][]int64
	var probeQueues []netem.Counters
	n.Sim.At(sim.Seconds(sp.WarmupSec), func() {
		for _, f := range n.Flows {
			var per []int64
			for _, k := range f.Sinks {
				per = append(per, k.GoodputBytes())
			}
			probeBytes = append(probeBytes, per)
		}
		for _, l := range n.Links {
			probeQueues = append(probeQueues, l.Queue.Stats())
		}
	})
	w, err := n.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if now := n.Sim.Now(); now > sp.EndTime() {
		t.Fatalf("run went to %v, past the window's end %v", now, sp.EndTime())
	}
	if w.Secs != sp.DurationSec {
		t.Fatalf("window %g s, want %g", w.Secs, sp.DurationSec)
	}

	t.Run("paths", func(t *testing.T) {
		if probeBytes == nil {
			t.Fatal("warm-up probe never fired")
		}
		for i, f := range n.Flows {
			for pi, k := range f.Sinks {
				want := k.GoodputBytes() - probeBytes[i][pi]
				if got := w.PathBytes(f, pi); got != want {
					t.Errorf("flow %s path %d: window %d bytes, want %d", f.Name, pi, got, want)
				}
				if want == 0 {
					t.Errorf("flow %s path %d delivered nothing in the window", f.Name, pi)
				}
			}
		}
	})
	t.Run("queues", func(t *testing.T) {
		for i, l := range n.Links {
			if want := l.Queue.Stats().Sub(probeQueues[i]); w.Queues[i] != want {
				t.Errorf("link %d: window %+v, want %+v", i, w.Queues[i], want)
			}
		}
	})
	t.Run("mbps", func(t *testing.T) {
		a, b := n.Flows[0], n.Flows[1]
		var sum int64
		for _, f := range []*Flow{a, b} {
			for pi := range f.Sinks {
				sum += w.PathBytes(f, pi)
			}
		}
		if got, want := w.Mbps(a, b), stats.Mbps(sum, sp.DurationSec); got != want {
			t.Fatalf("Mbps(a, b) = %v, want %v", got, want)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		n, err := Compile(twoPathSpec())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if w, err := n.Measure(ctx); w != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Measure on a canceled context = %v, %v; want nil and context.Canceled", w, err)
		}
	})
}
