package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o options, rep *report, rec *recorder) error{
	"paper":         runPaper,
	"campaign-cold": runCold,
	"serve-warm":    runServe,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scale sizes the workloads; the benchmark runs at fullScale and its tests
// at a smaller one.
type scale struct {
	// paperIDs limits the paper workload to these experiments; nil runs
	// the whole registry.
	paperIDs []string
	// coldN is the campaign-cold population size; jobN the size of each
	// serve-warm job's campaign, over serveSeeds campaign seeds.
	coldN, jobN, serveSeeds int
	// cheapSetups and serveSetups are how often set-up is repeated for
	// the median setup_s: the serve-warm set-up simulates its whole seed
	// set, the others one small warm-up.
	cheapSetups, serveSetups int
	// guarded compares the exact counts with the recorded full-scale
	// values.
	guarded bool
}

var fullScale = scale{
	coldN:       3000,
	jobN:        200,
	serveSeeds:  4,
	cheapSetups: 5,
	serveSetups: 3,
	guarded:     true,
}

// recorded holds the exact full-scale outputs per workload seed, for the
// simulated-behaviour guard: the paper output hash, the campaign-cold
// counts, and the serve-warm cold digests of the seed set.
type recorded struct {
	Paper map[int64]string     `json:"paper"`
	Cold  map[int64]coldCounts `json:"campaign-cold"`
	Serve map[int64][]string   `json:"serve-warm"`
}

//go:embed recorded.json
var recordedJSON []byte

var recordedValues = sync.OnceValue(func() recorded {
	var r recorded
	if err := json.Unmarshal(recordedJSON, &r); err != nil {
		// The file is compiled in; only a broken commit can get here.
		panic(fmt.Sprintf("perfbench: decoding recorded.json: %v", err))
	}
	return r
})
