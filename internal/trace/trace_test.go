package trace

import (
	"testing"

	"mptcpsim/internal/sim"
)

func TestRecorderSamplesAtPeriod(t *testing.T) {
	s := sim.New(1)
	v := 0.0
	s.At(0, func() {}) // anchor event so the clock starts at 0
	rec := NewRecorder(s, 100*sim.Millisecond, sim.Second,
		Probe{Name: "v", Fn: func() float64 { v += 1; return v }})
	rec.Start(0)
	s.RunUntil(2 * sim.Second)
	series := rec.Series(0)
	if len(series) != 11 { // t = 0, 0.1, ..., 1.0
		t.Fatalf("samples %d, want 11", len(series))
	}
	if series[0].T != 0 || series[10].T != sim.Second {
		t.Fatalf("sample times wrong: first %v last %v", series[0].T, series[10].T)
	}
	if series[10].V != 11 {
		t.Fatalf("probe called %v times", series[10].V)
	}
}

func TestRecorderMultipleProbes(t *testing.T) {
	s := sim.New(1)
	rec := NewRecorder(s, 50*sim.Millisecond, 200*sim.Millisecond,
		Probe{Name: "a", Fn: func() float64 { return 1 }},
		Probe{Name: "b", Fn: func() float64 { return 2 }})
	rec.Start(0)
	s.RunUntil(sim.Second)
	for i, want := range []float64{1, 2} {
		got := rec.Series(i)
		if len(got) != 5 || got[0].V != want || got[4].T != 200*sim.Millisecond {
			t.Fatalf("series %d: %v, want 5 samples of %v up to 200ms", i, got, want)
		}
	}
}

func TestMeanAfterExcludesWarmup(t *testing.T) {
	s := sim.New(1)
	rec := NewRecorder(s, 100*sim.Millisecond, sim.Second,
		Probe{Name: "v", Fn: func() float64 {
			if s.Now() < 500*sim.Millisecond {
				return 100
			}
			return 10
		}})
	rec.Start(0)
	s.RunUntil(2 * sim.Second)
	if got := rec.MeanAfter(0, 500*sim.Millisecond); got != 10 {
		t.Fatalf("MeanAfter %v, want 10", got)
	}
	if got := rec.MeanAfter(0, 10*sim.Second); got != 0 {
		t.Fatalf("MeanAfter beyond data %v, want 0", got)
	}
}

func TestNonpositivePeriodPanics(t *testing.T) {
	s := sim.New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(s, 0, sim.Second)
}
