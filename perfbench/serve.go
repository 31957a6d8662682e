package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mptcpsim"
	"mptcpsim/internal/campaign"
	"mptcpsim/internal/serve"
)

// serveBench is the serve-warm workload's state after set-up: an
// in-process campaign server on a loopback listener over a cache already
// holding every scenario of the seed set.
type serveBench struct {
	o   options
	rep *report
	// specs, bodies and cold hold, per campaign seed, the campaign, its
	// JSON submission and the digest of its cold run.
	specs  []mptcpsim.CampaignSpec
	bodies [][]byte
	cold   []string

	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// jobStatus is the part of the service's job status the client reads.
type jobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Digest string `json:"digest"`
	Error  string `json:"error"`
}

// jobOutcome is one client job's timings and checks.
type jobOutcome struct {
	id                     string
	submit, events, result time.Duration
	lines                  int
	ok                     bool
	// end is when the job finished, from the start of the client loop.
	end time.Duration
	// problem says why the job failed.
	problem string
}

func (j jobOutcome) total() time.Duration { return j.submit + j.events + j.result }

// runServe runs closed-loop clients, one per worker, each submitting a
// cached campaign, streaming its events to the terminal line and fetching
// its result, cycling through the seed set. Every job is answered from the
// cache, so no simulation runs while the clients are measured.
func runServe(ctx context.Context, o options, rep *report, rec *recorder) error {
	s := &serveBench{o: o, rep: rep}
	for j := 0; j < o.scale.serveSeeds; j++ {
		sp := population(serveSeed(o.seed, j), o.scale.jobN)
		body, err := json.Marshal(&sp)
		if err != nil {
			return fmt.Errorf("encoding campaign: %w", err)
		}
		s.specs = append(s.specs, sp)
		s.bodies = append(s.bodies, body)
	}
	s.cold = make([]string, len(s.specs))
	err := rep.timeSetup(o.scale.serveSetups, func(last bool) error {
		if err := s.setup(ctx); err != nil {
			return err
		}
		if !last {
			return s.shutdown()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := s.shutdown(); err != nil {
			rep.note("shutdown: %v", err)
		}
	}()
	s.guard()

	phases := 1
	if rec != nil {
		phases = 2
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu, err := startCPU()
	if err != nil {
		return err
	}
	plain, rate, err := s.clients(ctx, budget(o, phases), nil)
	if err != nil {
		return err
	}
	util, err := cpu.util(o.workers)
	if err != nil {
		return err
	}
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	lat := okTotals(plain)
	if len(lat) == 0 {
		return errors.New("no job succeeded")
	}
	rep.setLatency(lat, rate)
	if err := rep.setRSS(); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	l := rep.layer
	l["runner.cpu_util"] = util
	l["serve.retained_kb_per_job"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / float64(len(plain))

	traced, _, err := s.clients(ctx, budget(o, phases), rec)
	if err != nil {
		return err
	}
	var submit, wait, result, total []float64
	var lines int
	for _, j := range traced {
		if !j.ok {
			continue
		}
		submit = append(submit, float64(j.submit)/1e6)
		wait = append(wait, float64(j.events)/1e6)
		result = append(result, float64(j.result)/1e6)
		total = append(total, float64(j.total())/1e6)
		lines += j.lines
	}
	if len(total) == 0 {
		return errors.New("no traced job succeeded")
	}
	l["trace.overhead_frac"] = meanDur(okTotals(traced)).Seconds()/meanDur(lat).Seconds() - 1
	l["serve.submit_ms_p50"] = quantile(submit, 0.5)
	l["serve.wait_ms_p50"] = quantile(wait, 0.5)
	l["serve.result_ms_p50"] = quantile(result, 0.5)
	l["serve.job_p90_ms"] = quantile(total, 0.90)
	l["serve.job_p99_ms"] = quantile(total, 0.99)
	l["serve.event_lines_per_job"] = float64(lines) / float64(len(total))
	return s.warmProbe(ctx, rec)
}

// serveSeed is the campaign seed of job campaign j under a workload seed;
// workload seeds map to disjoint seed sets.
func serveSeed(seed int64, j int) int64 { return seed*100 + int64(j) + 1 }

// okTotals are the total times of the successful jobs.
func okTotals(js []jobOutcome) []time.Duration {
	var out []time.Duration
	for _, j := range js {
		if j.ok {
			out = append(out, j.total())
		}
	}
	return out
}

// setup warms a fresh cache with a cold run of every campaign of the seed
// set, recording their digests, and starts the server on it the way
// `mptcpsim serve` does by default.
func (s *serveBench) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(s.o.work, "serve-*")
	if err != nil {
		return fmt.Errorf("creating cache directory: %w", err)
	}
	s.dir = dir
	lab := mptcpsim.NewLab(mptcpsim.WithWorkers(s.o.workers))
	for j, sp := range s.specs {
		sp.CacheDir = dir
		res, err := lab.Campaign(ctx, sp)
		if err != nil {
			return err
		}
		if res.Violations != 0 {
			return fmt.Errorf("warming campaign seed %d: %d invariant violations (%v)", sp.Seed, res.Violations, res.Flagged)
		}
		s.cold[j] = res.Digest()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listening on loopback: %w", err)
	}
	s.srv = serve.NewServer(ctx, serve.Config{CacheDir: dir})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.o.workers,
		MaxIdleConnsPerHost: s.o.workers,
	}}
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("server health check: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server health check: status %d", resp.StatusCode)
	}
	return nil
}

// shutdown stops the server, waits for its goroutines and removes the
// cache. It is a no-op once done.
func (s *serveBench) shutdown() error {
	if s.srv == nil {
		return nil
	}
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.client.CloseIdleConnections()
	s.srv = nil
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	if err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	return nil
}

// clients runs one closed-loop client per worker until the budget is
// spent and returns every job's outcome and the completed-job rate: the
// median over whole one-second windows, so that a stall in a few windows
// does not move it.
func (s *serveBench) clients(ctx context.Context, budget time.Duration, rec *recorder) ([]jobOutcome, float64, error) {
	start := time.Now()
	deadline := start.Add(budget)
	outs := make([][]jobOutcome, s.o.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				j := s.job(ctx, rec, k%len(s.specs))
				j.end = time.Since(start)
				outs[c] = append(outs[c], j)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("run budget exceeded: %w", err)
	}
	var all []jobOutcome
	for _, o := range outs {
		all = append(all, o...)
	}
	windows := make([]float64, int(wall/time.Second))
	for _, j := range all {
		s.rep.check(j.ok, "job %s: %s", j.id, j.problem)
		if w := int(j.end / time.Second); j.ok && w < len(windows) {
			windows[w]++
		}
	}
	if len(windows) == 0 {
		// Shorter than one window: the plain mean.
		return all, float64(len(okTotals(all))) / wall.Seconds(), nil
	}
	return all, quantile(windows, 0.5), nil
}

// job submits campaign j, streams its events to the terminal line and
// fetches its result, checking status codes, that both the terminal status
// and the result carry the cold run's digest, and that every scenario came
// from the cache.
func (s *serveBench) job(ctx context.Context, rec *recorder, j int) jobOutcome {
	var out jobOutcome
	t0 := time.Now()
	st, err := s.submit(ctx, j)
	t1 := time.Now()
	out.submit = t1.Sub(t0)
	if err != nil {
		out.problem = fmt.Sprintf("submit: %v", err)
		return out
	}
	out.id = st.ID
	final, lines, err := s.events(ctx, st.ID)
	t2 := time.Now()
	out.events, out.lines = t2.Sub(t1), lines
	if err != nil {
		out.problem = fmt.Sprintf("events: %v", err)
		return out
	}
	body, err := s.get(ctx, "/v1/campaigns/"+st.ID+"/result", http.StatusOK)
	t3 := time.Now()
	out.result = t3.Sub(t2)
	if err != nil {
		out.problem = fmt.Sprintf("result: %v", err)
		return out
	}
	var res mptcpsim.CampaignResult
	if err := json.Unmarshal(body, &res); err != nil {
		out.problem = fmt.Sprintf("decoding result: %v", err)
		return out
	}
	out.ok = final.State == "done" && final.Digest == s.cold[j] && res.Digest() == s.cold[j] &&
		res.Simulated == 0 && res.CacheHits == res.N
	if !out.ok {
		out.problem = fmt.Sprintf("state %s %q, status digest %s, result digest %s, cold digest %s, %d simulated, %d cache hits",
			final.State, final.Error, final.Digest, res.Digest(), s.cold[j], res.Simulated, res.CacheHits)
	}
	root := rec.add(-1, "job", st.ID, t0, t3, nil)
	rec.add(root, "submit", st.ID, t0, t1, nil)
	rec.add(root, "events", st.ID, t1, t2, map[string]int64{"lines": int64(lines)})
	rec.add(root, "result", st.ID, t2, t3, map[string]int64{"bytes": int64(len(body))})
	return out
}

// submit posts campaign j and expects 202 Accepted.
func (s *serveBench) submit(ctx context.Context, j int) (jobStatus, error) {
	var st jobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/campaigns", bytes.NewReader(s.bodies[j]))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding status: %w", err)
	}
	return st, nil
}

// events streams a job's NDJSON status lines until the terminal one and
// returns it with the number of lines read.
func (s *serveBench) events(ctx context.Context, id string) (jobStatus, int, error) {
	var st jobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return st, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return st, lines, fmt.Errorf("decoding event line: %w", err)
		}
		if st.State != "running" {
			// Drain the rest so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return st, lines, err
		}
	}
	if err := sc.Err(); err != nil {
		return st, lines, err
	}
	return st, lines, errors.New("stream ended without a terminal status")
}

// get fetches a path and expects the given status.
func (s *serveBench) get(ctx context.Context, path string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// warmProbe measures the cache read path outside HTTP: a direct warm
// Lab.Campaign per seed, and SampleSpec and CacheKey over every index the
// jobs cover.
func (s *serveBench) warmProbe(ctx context.Context, rec *recorder) error {
	lab := mptcpsim.NewLab(mptcpsim.WithWorkers(s.o.workers))
	version := mptcpsim.Version()
	var warm time.Duration
	var hits, n int
	var sampleUs, keyUs []float64
	for j, sp := range s.specs {
		sp.CacheDir = s.dir
		t0 := time.Now()
		res, err := lab.Campaign(ctx, sp)
		t1 := time.Now()
		if err != nil {
			return err
		}
		rec.add(-1, "campaign-warm", fmt.Sprintf("seed%d", sp.Seed), t0, t1,
			map[string]int64{"cache_hits": int64(res.CacheHits)})
		s.rep.check(res.Digest() == s.cold[j], "warm campaign seed %d: digest %s, cold %s", sp.Seed, res.Digest(), s.cold[j])
		warm += t1.Sub(t0)
		hits += res.CacheHits
		n += res.N
		smp := sampler(sp)
		for i := 0; i < smp.N; i++ {
			k0 := time.Now()
			spec := smp.SampleSpec(i)
			k1 := time.Now()
			_, err := campaign.CacheKey(version, spec)
			k2 := time.Now()
			if err != nil {
				return err
			}
			req := fmt.Sprintf("seed%d-s%d", sp.Seed, i)
			root := rec.add(-1, "scenario-key", req, k0, k2, nil)
			rec.add(root, "sample", req, k0, k1, nil)
			rec.add(root, "cachekey", req, k1, k2, nil)
			sampleUs = append(sampleUs, float64(k1.Sub(k0))/1e3)
			keyUs = append(keyUs, float64(k2.Sub(k1))/1e3)
		}
	}
	l := s.rep.layer
	l["campaign.warm_us_per_scenario"] = float64(warm) / 1e3 / float64(n)
	l["campaign.cache_hit_ratio"] = float64(hits) / float64(n)
	l["campaign.sample_us"] = quantile(sampleUs, 0.5)
	l["campaign.cachekey_us"] = quantile(keyUs, 0.5)
	return nil
}

// guard states whether the cold digests of the seed set match the values
// recorded for the workload seed.
func (s *serveBench) guard() {
	if !s.o.scale.guarded {
		return
	}
	want, ok := recordedValues().Serve[s.o.seed]
	switch {
	case !ok:
		s.rep.note("guard: no digests recorded for seed %d", s.o.seed)
	case !slices.Equal(want, s.cold):
		s.rep.layer["guard.counts_differ"] = float64(len(s.cold))
		s.rep.note("guard: cold digests %v DIFFER from the recorded %v", s.cold, want)
	default:
		s.rep.note("guard: cold digests match the values recorded for seed %d", s.o.seed)
	}
}
