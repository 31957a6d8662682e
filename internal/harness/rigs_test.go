package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/trace"
)

// rigSeeds are the seeds every rig pin is taken at.
var rigSeeds = []int64{1, 2, 3}

// rigConfig is the measurement window of the rig pins: goldenConfig's
// window, one seed per run (each pin names its own seed).
func rigConfig(seed int64) Config {
	cfg := goldenConfig()
	cfg.Seeds = 1
	cfg.BaseSeed = seed
	return cfg
}

// twoLinkVariant names one two-link rig configuration used by an ablation
// or extension experiment.
type twoLinkVariant struct {
	name          string
	algo          string
	ntcp1, ntcp2  int
	dropTail      bool
	keepSlowStart bool
	noIncreaseCap bool
	maxCwndPkts   float64
	path2DelayMs  float64
}

// twoLinkVariants lists every two-link configuration the experiments run.
func twoLinkVariants() []twoLinkVariant {
	var out []twoLinkVariant
	for _, algo := range []string{"fullycoupled", "lia", "olia", "uncoupled"} {
		out = append(out, twoLinkVariant{name: "epsilon/" + algo, algo: algo, ntcp1: 5, ntcp2: 5})
	}
	for _, dt := range []bool{false, true} {
		for _, algo := range []string{"lia", "olia"} {
			out = append(out, twoLinkVariant{name: fmt.Sprintf("queue/droptail=%v/%s", dt, algo),
				algo: algo, ntcp1: 5, ntcp2: 10, dropTail: dt})
		}
	}
	out = append(out, twoLinkVariant{name: "ssthresh/keep", algo: "olia", ntcp1: 5, ntcp2: 10, keepSlowStart: true})
	out = append(out, twoLinkVariant{name: "cap/off", algo: "olia", ntcp1: 5, ntcp2: 5, noIncreaseCap: true})
	for _, rwnd := range []float64{16, 8, 4} {
		out = append(out, twoLinkVariant{name: fmt.Sprintf("rwnd/%g", rwnd),
			algo: "olia", ntcp1: 5, ntcp2: 5, maxCwndPkts: rwnd})
	}
	for _, algo := range []string{"olia", "lia", "uncoupled"} {
		out = append(out, twoLinkVariant{name: "rtt/" + algo, algo: algo, ntcp1: 5, ntcp2: 5,
			path2DelayMs: 120})
	}
	return out
}

// runTwoLinkVariant runs one variant through the experiments' rig runner.
func runTwoLinkVariant(cfg Config, v twoLinkVariant) twoLinkOutcome {
	sp := twoLinkSpec(cfg, v.ntcp1, v.ntcp2, v.algo)
	if v.dropTail {
		for i := range sp.Links {
			sp.Links[i].Queue = scenario.QueueDropTail
		}
	}
	if v.path2DelayMs != 0 {
		sp.Paths[1].DelayMs = v.path2DelayMs
	}
	mp := twoLinkMP(sp)
	mp.KeepSlowStart = v.keepSlowStart
	mp.NoIncreaseCap = v.noIncreaseCap
	mp.MaxCwndPkts = v.maxCwndPkts
	return runTwoLink(cfg, sp)
}

// rigPin is one pinned run: a case name, its seed, and the raw observables.
// JSON encodes float64 in its shortest round-tripping form, so equal bytes
// mean equal values bit for bit.
type rigPin struct {
	Case   string               `json:"case"`
	Seed   int64                `json:"seed"`
	Values map[string]float64   `json:"values"`
	Series map[string][]int64   `json:"series,omitempty"`
	Points map[string][]float64 `json:"points,omitempty"`
}

// seriesPin splits a recorded series into its sample times (ns) and values.
func seriesPin(p *rigPin, name string, s []trace.Point) {
	if p.Series == nil {
		p.Series, p.Points = map[string][]int64{}, map[string][]float64{}
	}
	ts := make([]int64, len(s))
	vs := make([]float64, len(s))
	for i, pt := range s {
		ts[i], vs[i] = int64(pt.T), pt.V
	}
	p.Series[name], p.Points[name] = ts, vs
}

// rigPins computes every pin of one rig family, fanned out over the seeds.
var rigPins = map[string]func() []rigPin{
	"scenario_b": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, algo := range []string{"lia", "olia"} {
				for _, mp := range []bool{false, true} {
					m := runScenarioB(rigConfig(seed), algo, mp, seed)
					out = append(out, rigPin{Case: fmt.Sprintf("%s/red_multipath=%v", algo, mp), Seed: seed,
						Values: map[string]float64{"blue": m.bluePerUser, "red": m.redPerUser, "agg": m.aggregate}})
				}
			}
		}
		return out
	},
	"scenario_c": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, c1 := range scenarioCSweep.c1s {
				for _, n1 := range scenarioCSweep.n1s {
					for _, algo := range []string{"lia", "olia"} {
						m := runScenarioC(rigConfig(seed), cPoint{c1, n1, algo}, seed)
						out = append(out, rigPin{Case: fmt.Sprintf("c1=%g/n1=%d/%s", c1, n1, algo), Seed: seed,
							Values: map[string]float64{"multi": m.multiNorm, "single": m.singleNorm, "p1": m.p1, "p2": m.p2}})
					}
				}
			}
		}
		return out
	},
	"two_link": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, v := range twoLinkVariants() {
				o := runTwoLinkVariant(rigConfig(seed), v)
				out = append(out, rigPin{Case: v.name, Seed: seed, Values: map[string]float64{
					"mp1": o.mp1, "mp2": o.mp2, "bg1": o.bg1, "bg2": o.bg2, "flips": float64(o.flipsCount)}})
			}
		}
		return out
	},
	"trace": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, bg := range [][2]int{{5, 5}, {5, 10}} {
				for _, algo := range []string{"olia", "lia"} {
					r := runTrace(rigConfig(seed), algo, bg[0], bg[1])
					p := rigPin{Case: fmt.Sprintf("%s/tcp=%d,%d", algo, bg[0], bg[1]), Seed: seed,
						Values: map[string]float64{"w1": r.w1, "w2": r.w2, "flips": float64(r.flipsCount)}}
					if r.hasAlpha {
						p.Values["a1"], p.Values["a2"] = r.a1, r.a2
					}
					seriesPin(&p, "w1", r.s1)
					seriesPin(&p, "w2", r.s2)
					out = append(out, p)
				}
			}
		}
		return out
	},
	"serial": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, mode := range []string{"tcp", "mptcp-olia stream"} {
				o := runSerialTransfers(rigConfig(seed), mode, 512*1024, 20)
				out = append(out, rigPin{Case: mode, Seed: seed, Values: map[string]float64{
					"n": float64(o.sum.N()), "mean": o.sum.Mean(), "var": o.sum.Var(),
					"min": o.sum.Min(), "max": o.sum.Max()}})
			}
		}
		return out
	},
	"probe": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, enable := range []bool{false, true} {
				m := runProbeSuspension(rigConfig(seed), enable, seed)
				out = append(out, rigPin{Case: fmt.Sprintf("suspend=%v", enable), Seed: seed, Values: map[string]float64{
					"single": m.single, "multi": m.multi, "suspends": float64(m.suspends)}})
			}
		}
		return out
	},
	"delack": func() []rigPin {
		var out []rigPin
		for _, seed := range rigSeeds {
			for _, delayed := range []bool{false, true} {
				o := runDelack(rigConfig(seed), delayed)
				out = append(out, rigPin{Case: fmt.Sprintf("delayed=%v", delayed), Seed: seed, Values: map[string]float64{
					"mp": o.mpMbps, "bg_mean": o.bgMeanMbps}})
			}
		}
		return out
	},
}

// TestRigPins locks the raw, full-precision observables of every testbed
// rig — Scenarios B and C, the Fig. 6 two-link rig in each ablation and
// extension variant, the Figs. 7/8 window traces, serial transfers, bad-path
// suspension and delayed ACKs — at three seeds. The text goldens print one
// or two decimals; these pins catch any change to how a rig is wired (path
// order, flow IDs, start jitter, element order). Regenerate with
//
//	go test ./internal/harness -run TestRigPins -update
func TestRigPins(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	for name, pins := range rigPins {
		name, pins := name, pins
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			got, err := json.MarshalIndent(pins(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "rigs", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing rig pin %s (run with -update): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: rig outputs differ from %s", name, path)
				reportPinDiffs(t, got, want)
			}
		})
	}
}

// reportPinDiffs names the first few pinned cases whose values changed.
func reportPinDiffs(t *testing.T, got, want []byte) {
	t.Helper()
	var g, w []rigPin
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil || len(g) != len(w) {
		t.Errorf("pin layout changed: %d cases, want %d", len(g), len(w))
		return
	}
	shown := 0
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) && shown < 5 {
			t.Errorf("%s seed %d: got %v, want %v", g[i].Case, g[i].Seed, g[i].Values, w[i].Values)
			shown++
		}
	}
}
