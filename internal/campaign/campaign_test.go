package campaign

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mptcpsim/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file from this run")

// tinySpec is the fast test population: short runs, small links, every
// sampler feature (finite transfers, schedulers, faults) exercised.
func tinySpec() *Spec {
	return &Spec{
		Name: "tiny",
		N:    24,
		Seed: 5,
		// Windows stay comfortably past the 1 s start-jitter span so every
		// flow actually runs inside the measurement window.
		WarmupSec:    Const(1),
		DurationSec:  Uniform(1.5, 2.5),
		Paths:        IntRange{Min: 1, Max: 2},
		LinkRateMbps: LogUniform(2, 8),
		LinkDelayMs:  Uniform(5, 20),
		LinkLossPct:  Choice(0, 0, 0.5),
		Queues:       []string{string(scenario.QueueRED), string(scenario.QueueDropTail)},
		Algorithms:   []string{"olia", "lia"},
		FlowBytes:    Choice(0, 200_000),
		Schedulers:   []string{"minrtt", "roundrobin"},
		Background:   IntRange{Min: 0, Max: 1},
		StartJitter:  true,
		Faults:       FaultSpec{Events: IntRange{Min: 0, Max: 1}, Rate: true, Blackhole: true, Flap: true},
	}
}

// TestSampledSpecsValidate proves every scenario the samplers can draw is
// accepted by the scenario DSL's own validator, and that sampling is a pure
// function of (Spec, index).
func TestSampledSpecsValidate(t *testing.T) {
	for _, sp := range []*Spec{Default(), tinySpec()} {
		sp = sp.fill()
		if err := sp.Validate(); err != nil {
			t.Fatalf("%s: spec invalid: %v", sp.Name, err)
		}
		for i := 0; i < 200; i++ {
			s := sp.SampleSpec(i)
			if err := s.Validate(); err != nil {
				t.Errorf("%s[%d]: sampled scenario invalid: %v", sp.Name, i, err)
			}
			if again := sp.SampleSpec(i); !reflect.DeepEqual(s, again) {
				t.Errorf("%s[%d]: re-sampling the same index changed the scenario", sp.Name, i)
			}
		}
	}
}

// TestSampleDiversity guards against a draw-order bug collapsing the
// population: across indices the default campaign must actually vary path
// counts, controllers, and fault presence.
func TestSampleDiversity(t *testing.T) {
	sp := Default().fill()
	paths := map[int]bool{}
	algos := map[string]bool{}
	faulted := 0
	for i := 0; i < 100; i++ {
		s := sp.SampleSpec(i)
		paths[len(s.Paths)] = true
		algos[s.Flows[0].Algorithm] = true
		if len(s.Timeline) > 0 {
			faulted++
		}
	}
	if len(paths) < 3 {
		t.Errorf("path counts drawn: %v, want all of 1..3", paths)
	}
	if len(algos) < 2 {
		t.Errorf("controllers drawn: %v, want both", algos)
	}
	if faulted == 0 || faulted == 100 {
		t.Errorf("%d/100 scenarios faulted, want a proper mix", faulted)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no duration", func(sp *Spec) { sp.DurationSec = Dist{} }},
		{"no rate", func(sp *Spec) { sp.LinkRateMbps = Dist{} }},
		{"no algorithms", func(sp *Spec) { sp.Algorithms = nil }},
		{"unknown algorithm", func(sp *Spec) { sp.Algorithms = []string{"cubic9000"} }},
		{"unknown queue", func(sp *Spec) { sp.Queues = []string{"codel"} }},
		{"unknown scheduler", func(sp *Spec) { sp.Schedulers = []string{"warp"} }},
		{"scheduler without flow bytes", func(sp *Spec) { sp.FlowBytes = Dist{} }},
		{"inverted paths", func(sp *Spec) { sp.Paths = IntRange{Min: 3, Max: 1} }},
		{"zero paths", func(sp *Spec) { sp.Paths = IntRange{} }},
		{"negative N", func(sp *Spec) { sp.N = -1 }},
		{"loss at 100", func(sp *Spec) { sp.LinkLossPct = Const(100) }},
		{"inverted uniform", func(sp *Spec) { sp.DurationSec = Uniform(4, 2) }},
		{"log-uniform from zero", func(sp *Spec) { sp.LinkRateMbps = LogUniform(0, 8) }},
		{"empty choice", func(sp *Spec) { sp.LinkLossPct = Dist{Kind: DistChoice} }},
		{"kindless dist", func(sp *Spec) { sp.DurationSec = Dist{Min: 1, Max: 2} }},
		{"unknown kind", func(sp *Spec) { sp.DurationSec = Dist{Kind: "gauss", Min: 1, Max: 2} }},
		{"faults without kinds", func(sp *Spec) { sp.Faults = FaultSpec{Events: IntRange{Max: 2}} }},
		{"oversized faults", func(sp *Spec) {
			sp.Faults = FaultSpec{Events: IntRange{Max: 64}, Rate: true}
		}},
	}
	for _, c := range cases {
		sp := tinySpec()
		c.mutate(sp)
		if err := sp.fill().Validate(); err == nil {
			t.Errorf("%s: Validate accepted the broken spec", c.name)
		}
	}
}

func TestDistSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []Dist{Const(3), Uniform(2, 5), LogUniform(1, 100), Choice(1, 2, 7)} {
		if err := d.validate("x", 0, 1000); err != nil {
			t.Fatalf("%+v: %v", d, err)
		}
		for i := 0; i < 200; i++ {
			v := d.sample(rng)
			if v < 1 || v > 100 {
				switch d.Kind {
				case DistLogUniform:
					t.Fatalf("log-uniform drew %g outside [1, 100]", v)
				default:
				}
			}
		}
	}
	r := IntRange{Min: 2, Max: 4}
	for i := 0; i < 100; i++ {
		if v := r.sample(rng); v < 2 || v > 4 {
			t.Fatalf("IntRange drew %d outside [2, 4]", v)
		}
	}
}

func TestCacheKey(t *testing.T) {
	sp := tinySpec().fill()
	a := sp.SampleSpec(0)
	k1, err := CacheKey("v1", a)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey("v1", sp.SampleSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical (version, spec) produced different keys")
	}
	if k3, _ := CacheKey("v2", a); k3 == k1 {
		t.Error("changing the code version did not change the key")
	}
	b := sp.SampleSpec(0)
	b.Seed++
	if k4, _ := CacheKey("v1", b); k4 == k1 {
		t.Error("changing the scenario seed did not change the key")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := openCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := &scenario.RunReport{Name: "x", Seed: 3, Processed: 42,
		Flows: []scenario.FlowReport{{Name: "user-0", GoodputMbps: 1.25, GoodputBytes: 10000}}}
	key, err := CacheKey("v", &scenario.Spec{Name: "x", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get(key); ok {
		t.Fatal("hit before put")
	}
	if err := c.put(key, rep); err != nil {
		t.Fatal(err)
	}
	got, ok := c.get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip changed the report: %+v vs %+v", got, rep)
	}

	// A torn or corrupted entry is a miss, not an error.
	if err := os.WriteFile(c.path(key), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get(key); ok {
		t.Error("corrupted entry treated as a hit")
	}
	// A nil cache (caching disabled) is inert.
	var nc *cache
	if _, ok := nc.get(key); ok {
		t.Error("nil cache produced a hit")
	}
	if err := nc.put(key, rep); err != nil {
		t.Errorf("nil cache put failed: %v", err)
	}
}

// TestRunWorkerIdentity is the campaign determinism theorem: the full
// rendered Result — aggregates, digest, every byte — is identical at
// worker counts 1, 4 and 8.
func TestRunWorkerIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(context.Background(), sp, Options{Workers: workers, Version: "test"})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Simulated != sp.N || res.CacheHits != 0 {
			t.Fatalf("workers=%d: simulated %d / hits %d, want %d / 0",
				workers, res.Simulated, res.CacheHits, sp.N)
		}
		data, err := res.RenderJSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Errorf("workers=%d: rendered result differs from workers=1:\n%s\nvs\n%s",
				workers, data, ref)
		}
	}
}

// TestRunWarmCache is the issue's acceptance criterion: a 200-scenario
// campaign re-run against a warm cache performs zero simulations and
// reproduces the cold result byte-for-byte.
func TestRunWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 200
	sp.DurationSec = Uniform(1.2, 1.8)
	sp.CacheDir = filepath.Join(t.TempDir(), "cache")
	cold, err := Run(context.Background(), sp, Options{Workers: 8, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated != 200 || cold.CacheHits != 0 {
		t.Fatalf("cold run: simulated %d / hits %d, want 200 / 0", cold.Simulated, cold.CacheHits)
	}
	warm, err := Run(context.Background(), sp, Options{Workers: 4, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 0 || warm.CacheHits != 200 {
		t.Fatalf("warm run: simulated %d / hits %d, want 0 / 200", warm.Simulated, warm.CacheHits)
	}
	if cold.Digest() != warm.Digest() {
		t.Errorf("warm digest %s differs from cold %s", warm.Digest(), cold.Digest())
	}
	cj, _ := cold.RenderJSON()
	wj, _ := warm.RenderJSON()
	// The cache counters are the only permitted difference.
	warm.Simulated, warm.CacheHits = cold.Simulated, cold.CacheHits
	wj2, _ := warm.RenderJSON()
	if bytes.Equal(cj, wj) {
		t.Error("cache counters did not change between cold and warm runs")
	}
	if !bytes.Equal(cj, wj2) {
		t.Errorf("warm aggregates differ from cold:\n%s\nvs\n%s", wj2, cj)
	}

	// A version bump invalidates every entry: the re-run simulates again.
	bumped, err := Run(context.Background(), sp, Options{Workers: 8, Version: "test2"})
	if err != nil {
		t.Fatal(err)
	}
	if bumped.Simulated != 200 {
		t.Errorf("version bump: simulated %d, want 200", bumped.Simulated)
	}
}

// TestRunMisplacedCacheEntry: an entry file that sits at another key's
// path — here scenario 0's report copied over scenario 1's — records the
// wrong key, so the warm run treats it as a miss and re-simulates scenario
// 1 instead of folding scenario 0's report twice.
func TestRunMisplacedCacheEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 8
	sp.CacheDir = filepath.Join(t.TempDir(), "cache")
	cold, err := Run(context.Background(), sp, Options{Workers: 2, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	c := &cache{dir: sp.CacheDir}
	var keys [2]string
	for i := range keys {
		if keys[i], err = CacheKey("test", sp.fill().SampleSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(c.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(keys[1]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get(keys[1]); ok {
		t.Fatal("entry recording another key served as a hit")
	}
	warm, err := Run(context.Background(), sp, Options{Workers: 2, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Simulated != 1 || warm.CacheHits != sp.N-1 {
		t.Errorf("warm run: simulated %d / hits %d, want 1 / %d", warm.Simulated, warm.CacheHits, sp.N-1)
	}
	if cold.Digest() != warm.Digest() {
		t.Errorf("warm digest %s differs from cold %s", warm.Digest(), cold.Digest())
	}
	// The re-simulation rewrote the entry under its own key.
	if _, ok := c.get(keys[1]); !ok {
		t.Error("re-simulated entry not rewritten")
	}
}

func TestRunProgressAndCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 4
	var last, total int
	_, err := Run(context.Background(), sp, Options{Workers: 2, Progress: func(d, tot int) {
		if d < last {
			t.Errorf("progress went backwards: %d after %d", d, last)
		}
		last, total = d, tot
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last != 4 || total != 4 {
		t.Errorf("final progress %d/%d, want 4/4", last, total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sp, Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled campaign returned %v, want context.Canceled", err)
	}
}

func TestRunRejectsInvalidSpec(t *testing.T) {
	sp := tinySpec()
	sp.Algorithms = nil
	if _, err := Run(context.Background(), sp, Options{}); err == nil {
		t.Fatal("Run accepted an invalid campaign spec")
	}
}

// TestGolden locks the rendered text report byte-for-byte under a fixed
// code version. Regenerate with
//
//	go test ./internal/campaign -run TestGolden -update
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates scenarios; skipped in -short")
	}
	sp := tinySpec()
	sp.N = 16
	res, err := Run(context.Background(), sp, Options{Workers: 4, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	got := res.RenderText()
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("campaign text report drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
