package mptcpsim

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden files under testdata/simulate were generated from the
// pre-refactor hand-wired builder.go rig (the original mptcpsim.Simulate
// implementation), before Simulate was re-expressed as a compiled
// scenario.Spec. They pin the exact Report — every float at full
// round-trip precision — so the scenario-compiled path is proven
// byte-identical to the rig it replaced. Do not regenerate them unless the
// simulation model itself changes deliberately.
var updateSimulateGolden = flag.Bool("update-simulate-golden", false,
	"rewrite testdata/simulate goldens from the current Lab.Simulate implementation")

// simulateGoldenCases covers the builder rig's whole surface: RED and
// drop-tail queues, one to three paths, background loads from zero up, and
// every coupled controller.
func simulateGoldenCases() []Scenario {
	return []Scenario{
		{Algorithm: "olia", DurationSec: 8, Seed: 1,
			Paths: []Path{{RateMbps: 10, BackgroundTCP: 5}, {RateMbps: 10, BackgroundTCP: 10}}},
		{Algorithm: "lia", DurationSec: 6, Seed: 2,
			Paths: []Path{{RateMbps: 10, BackgroundTCP: 2}, {RateMbps: 20, BackgroundTCP: 4}}},
		{Algorithm: "uncoupled", DurationSec: 5, Seed: 3,
			Paths: []Path{{RateMbps: 4, BackgroundTCP: 1}, {RateMbps: 8, BackgroundTCP: 2}, {RateMbps: 16, BackgroundTCP: 3}}},
		{Algorithm: "olia", DurationSec: 6, Seed: 4,
			Paths: []Path{{RateMbps: 5, BackgroundTCP: 1, DropTail: true}}},
		{Algorithm: "fullycoupled", DurationSec: 5, Seed: 5,
			Paths: []Path{{RateMbps: 6, BackgroundTCP: 3, DropTail: true}, {RateMbps: 12, BackgroundTCP: 2}}},
		{Algorithm: "olia", DurationSec: 5, Seed: 6,
			Paths: []Path{{RateMbps: 8}, {RateMbps: 8, BackgroundTCP: 4}}},
	}
}

func goldenPath(i int) string {
	return filepath.Join("testdata", "simulate", fmt.Sprintf("case%02d.json", i))
}

// TestSimulateGolden proves the scenario-compiled Simulate reproduces the
// pre-refactor builder.go output byte for byte.
func TestSimulateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short")
	}
	for i, sc := range simulateGoldenCases() {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			rep, err := NewLab().Simulate(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(i)
			if *updateSimulateGolden {
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
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("Simulate output drifted from the pre-refactor builder rig\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
