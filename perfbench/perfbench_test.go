package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"mptcpsim"
)

var update = flag.Bool("update", false, "rewrite recorded.json from full-scale runs")

// smallScale runs every workload in a few seconds: three cheap experiments
// (checked against their goldens at the default seed), a 40-scenario
// campaign and 10-scenario jobs over two seeds.
var smallScale = scale{
	paperIDs:    []string{"fig4a", "fig7", "table1"},
	coldN:       40,
	jobN:        10,
	serveSeeds:  2,
	cheapSetups: 1,
	serveSetups: 1,
}

func smallOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     paperGoldenSeed,
		seconds:  0.3,
		trace:    trace,
		root:     "..",
		work:     t.TempDir(),
		workers:  2,
		scale:    smallScale,
	}
}

// runSmall runs one workload at small scale and decodes its result line.
func runSmall(t *testing.T, workload string, trace bool) (*report, result) {
	t.Helper()
	rep, err := run(context.Background(), smallOptions(t, workload, trace))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: result %+v\n%s", workload, res, out.String())
	}
	return rep, res
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCatalog holds BENCHMARK.json and the layer map
// to the metrics and workloads the program reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers struct {
		Metrics []struct {
			Metric    string   `json:"metric"`
			Moves     []string `json:"moves"`
			Workloads []string `json:"workloads"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	mapped := make(map[string]bool)
	for _, m := range layers.Metrics {
		mapped[m.Metric] = true
		for _, e := range m.Moves {
			if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == e }) {
				t.Errorf("layers.json: %s moves unknown end-to-end metric %q", m.Metric, e)
			}
		}
		for _, w := range m.Workloads {
			if _, ok := workloads[w]; !ok {
				t.Errorf("layers.json: %s names unknown workload %q", m.Metric, w)
			}
		}
	}
	for _, m := range perLayer {
		if !mapped[m.name] {
			t.Errorf("layers.json does not map %s", m.name)
		}
	}
}

// TestEveryMetricReported runs every workload untraced and traced and
// requires each result line to carry exactly its metric set, with units.
func TestEveryMetricReported(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			_, res := runSmall(t, w, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: %s = %+v, want unit %s", w, trace, m.name, got, m.unit)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestExactCountsRepeat requires two traced campaign-cold runs to report
// identical simulated counts, and the serve-warm warm probe to be served
// entirely from cache.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{"sim.events", "tcp.sent_pkts", "tcp.timeouts", "netem.drops",
		"mptcp.completions", "mptcp.completion_s_p50", "campaign.cache_entries"}
	a, _ := runSmall(t, "campaign-cold", true)
	b, _ := runSmall(t, "campaign-cold", true)
	for _, m := range exact {
		if a.layer[m] != b.layer[m] {
			t.Errorf("%s: %v then %v", m, a.layer[m], b.layer[m])
		}
	}
	if a.layer["sim.events"] == 0 || a.layer["campaign.cache_entries"] != float64(smallScale.coldN) {
		t.Errorf("events %v, cache entries %v for %d scenarios",
			a.layer["sim.events"], a.layer["campaign.cache_entries"], smallScale.coldN)
	}
	s, _ := runSmall(t, "serve-warm", true)
	if s.layer["campaign.cache_hit_ratio"] != 1 {
		t.Errorf("serve-warm cache hit ratio %v, want 1", s.layer["campaign.cache_hit_ratio"])
	}
}

// recordedSeeds are the workload seeds recorded.json covers.
const recordedSeeds = 16

// TestRecorded rewrites recorded.json with -update, from full-scale runs
// of seeds 0 to recordedSeeds-1 (several minutes); otherwise it checks the
// file covers them.
func TestRecorded(t *testing.T) {
	if !*update {
		r := recordedValues()
		for seed := int64(0); seed < recordedSeeds; seed++ {
			if _, ok := r.Paper[seed]; !ok {
				t.Errorf("no paper output recorded for seed %d", seed)
			}
			if _, ok := r.Cold[seed]; !ok {
				t.Errorf("no campaign-cold counts recorded for seed %d", seed)
			}
			if len(r.Serve[seed]) != fullScale.serveSeeds {
				t.Errorf("serve-warm seed %d: %d digests recorded", seed, len(r.Serve[seed]))
			}
		}
		return
	}
	ctx := context.Background()
	r := recorded{Paper: map[int64]string{}, Cold: map[int64]coldCounts{}, Serve: map[int64][]string{}}
	for seed := int64(0); seed < recordedSeeds; seed++ {
		o := smallOptions(t, "", false)
		o.seed, o.scale = seed, fullScale
		o.scale.guarded = false
		var err error
		if r.Paper[seed], err = recordPaper(ctx, o); err != nil {
			t.Fatal(err)
		}
		if r.Cold[seed], err = recordCold(ctx, o); err != nil {
			t.Fatal(err)
		}
		if r.Serve[seed], err = recordServe(ctx, o); err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %s %+v %v", seed, r.Paper[seed], r.Cold[seed], r.Serve[seed])
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("recorded.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recordPaper is the SHA-256 of one full regeneration.
func recordPaper(ctx context.Context, o options) (string, error) {
	rep := newReport(o)
	p := newPaperBench(o, rep)
	if err := p.setup(ctx); err != nil {
		return "", err
	}
	var out bytes.Buffer
	if _, err := p.regenerate(ctx, &out); err != nil {
		return "", err
	}
	return p.digest, failures(rep)
}

// recordCold is one cold campaign's digest, cache entries and exact counts.
func recordCold(ctx context.Context, o options) (coldCounts, error) {
	rep := newReport(o)
	c := &coldBench{o: o, rep: rep, lab: mptcpsim.NewLab(mptcpsim.WithWorkers(o.workers)),
		spec: population(o.seed, o.scale.coldN)}
	_, cs, err := c.campaign(ctx, nil, true)
	if err != nil {
		return coldCounts{}, err
	}
	if _, err := c.replay(ctx, nil); err != nil {
		return coldCounts{}, err
	}
	got := *c.counts
	got.Digest, got.CacheEntries = c.digest, cs.entries
	return got, failures(rep)
}

// recordServe is the cold digests of the serve-warm seed set.
func recordServe(ctx context.Context, o options) ([]string, error) {
	var digests []string
	lab := mptcpsim.NewLab(mptcpsim.WithWorkers(o.workers))
	for j := 0; j < o.scale.serveSeeds; j++ {
		res, err := lab.Campaign(ctx, population(serveSeed(o.seed, j), o.scale.jobN))
		if err != nil {
			return nil, err
		}
		digests = append(digests, res.Digest())
	}
	return digests, nil
}

// failures turns a report's failed checks into an error.
func failures(rep *report) error {
	if rep.failed == 0 {
		return nil
	}
	return &failedChecks{rep.notes}
}

type failedChecks struct{ notes []string }

func (f *failedChecks) Error() string { return strings.Join(f.notes, "\n") }
