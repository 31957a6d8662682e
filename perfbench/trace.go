package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Req; Parent is
// the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string           `json:"name"`
	Req    string           `json:"req"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes run the identical code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its index, for children to name
// as their parent; a nil recorder returns -1.
func (r *recorder) add(parent int, name, req string, start, end time.Time, counts map[string]int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Req: req, Parent: parent,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
		Counts: counts,
	})
	return len(r.spans) - 1
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTime is the total self time of all spans of one name.
type selfTime struct {
	name  string
	count int
	self  time.Duration
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children, in first-seen name order.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	idx := make(map[string]int)
	var out []selfTime
	for i, s := range r.spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, selfTime{name: s.Name})
		}
		out[j].count++
		out[j].self += time.Duration(self)
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]; concurrent children may overlap.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores every span as one JSON document.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
