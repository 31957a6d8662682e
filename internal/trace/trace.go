// Package trace records time series from running simulations: the window
// and α evolution plots of the paper's Figs. 7 and 8 are produced by
// sampling probes at a fixed period.
package trace

import "mptcpsim/internal/sim"

// Point is one sample of one probe.
type Point struct {
	T sim.Time
	V float64
}

// Probe is a named float-valued observation function.
type Probe struct {
	Name string
	Fn   func() float64
}

// Recorder samples a set of probes at a fixed period.
type Recorder struct {
	sim    *sim.Sim
	period sim.Time
	probes []Probe
	data   [][]Point
	stop   sim.Time
}

// NewRecorder builds a recorder sampling every period until stop.
func NewRecorder(s *sim.Sim, period, stop sim.Time, probes ...Probe) *Recorder {
	if period <= 0 {
		panic("trace: nonpositive period")
	}
	r := &Recorder{sim: s, period: period, probes: probes, stop: stop}
	r.data = make([][]Point, len(probes))
	return r
}

// Start schedules sampling beginning at the given time.
func (r *Recorder) Start(at sim.Time) {
	r.sim.Schedule(at, r)
}

// RunEvent takes one sample of every probe and schedules the next
// (sim.Handler, so periodic sampling does not allocate events).
func (r *Recorder) RunEvent(now sim.Time) {
	for i, p := range r.probes {
		r.data[i] = append(r.data[i], Point{now, p.Fn()})
	}
	if now+r.period <= r.stop {
		r.sim.ScheduleAfter(r.period, r)
	}
}

// Series returns the samples of probe i.
func (r *Recorder) Series(i int) []Point { return r.data[i] }

// MeanAfter averages the samples of probe i taken at or after t0 (warm-up
// exclusion).
func (r *Recorder) MeanAfter(i int, t0 sim.Time) float64 {
	var sum float64
	var n int
	for _, p := range r.data[i] {
		if p.T >= t0 {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
