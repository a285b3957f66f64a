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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"cpsrisk/internal/core"
	"cpsrisk/internal/kb"
	"cpsrisk/internal/serve"
	"cpsrisk/internal/sysmodel"
)

// pollInterval is the client's sleep between job status polls.
const pollInterval = time.Millisecond

// servedEnv is a running in-process riskserve on a loopback port.
type servedEnv struct {
	types  *sysmodel.TypeLibrary
	pools  [][]variant
	orders [][]int
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
}

// startServed boots the service with riskserve's flag defaults
// (maxcard 2, 2 job workers, artifact cap 8, no optimiser) and a fixed
// pool of 2 sweep workers.
func startServed(seed int64) (*servedEnv, error) {
	types, err := loadTypes()
	if err != nil {
		return nil, err
	}
	e := &servedEnv{types: types}
	e.pools, e.orders = servedSchedule(seed)
	e.srv, err = serve.New(serve.Options{
		Types: types, MaxCardinality: 2, JobWorkers: 2, ArtifactCap: 8,
		Parallelism: parallelism, SolverWorkers: 1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = e.srv.Drain(context.Background())
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop shuts the listener down and drains the job workers, returning
// once every server goroutine has exited.
func (e *servedEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := e.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// warmUp submits every pool entry of both tenants once.
func (e *servedEnv) warmUp() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	for t, pool := range e.pools {
		for i := range pool {
			if j := e.job(hc, t, i, false); !j.ok {
				return fmt.Errorf("%s variant %d: %s", servedTenants[t], i, j.err)
			}
		}
	}
	return nil
}

// jobSample is one client-side job: submit, polls, report.
type jobSample struct {
	tenant, variant int
	ok              bool
	err             string
	jobMS           float64
	submitMS        float64
	reportMS        float64
	queueMS, runMS  float64
	envelopeMS      float64
	polls           int
	path            string
	digest          string
	reportBytes     int
	summary         *core.Summary // decoded full report (traced phase only)
}

// client is one closed-loop tenant: it submits the next variant of its
// pool only after the previous job's report has arrived.
func (e *servedEnv) client(hc *http.Client, tenant int, full bool, deadline time.Time) []jobSample {
	var out []jobSample
	order := e.orders[tenant]
	for i := 0; time.Now().Before(deadline); i++ {
		idx := order[i%len(order)]
		s := e.job(hc, tenant, idx, full)
		out = append(out, s)
	}
	return out
}

func traceIDFor(tenant, idx int) string {
	return fmt.Sprintf("%s-v%d", servedTenants[tenant], idx)
}

func (e *servedEnv) job(hc *http.Client, tenant, idx int, full bool) (s jobSample) {
	s = jobSample{tenant: tenant, variant: idx}
	fail := func(format string, args ...any) jobSample {
		s.ok, s.err = false, fmt.Sprintf(format, args...)
		return s
	}
	t0 := time.Now()
	req, err := http.NewRequest("POST", e.url+"/v1/assess", bytes.NewReader(e.pools[tenant][idx].doc))
	if err != nil {
		return fail("submit: %v", err)
	}
	req.Header.Set("X-Tenant", servedTenants[tenant])
	req.Header.Set("X-Trace-Id", traceIDFor(tenant, idx))
	var st serve.JobStatus
	if code, err := doJSON(hc, req, &st); err != nil || code != http.StatusAccepted {
		return fail("submit: status %d, %v", code, err)
	}
	s.submitMS = ms(time.Since(t0))
	for st.State == serve.JobQueued || st.State == serve.JobRunning {
		time.Sleep(pollInterval)
		req, _ := http.NewRequest("GET", e.url+"/v1/jobs/"+st.ID, nil)
		s.polls++
		if code, err := doJSON(hc, req, &st); err != nil || code != http.StatusOK {
			return fail("poll: status %d, %v", code, err)
		}
	}
	if st.State != serve.JobDone || st.Degraded {
		return fail("job %s ended %s (degraded %v): %s", st.ID, st.State, st.Degraded, st.Error)
	}
	t1 := time.Now()
	path := "/v1/jobs/" + st.ID + "/report"
	if full {
		path += "?full=1"
	}
	resp, err := hc.Get(e.url + path)
	if err != nil {
		return fail("report: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("report: status %d, %v", resp.StatusCode, err)
	}
	now := time.Now()
	s.reportMS = ms(now.Sub(t1))
	s.jobMS = ms(now.Sub(t0))

	submitted, err1 := time.Parse(time.RFC3339Nano, st.Submitted)
	started, err2 := time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, st.Finished)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fail("job timestamps: %v", err)
	}
	s.queueMS = ms(started.Sub(submitted))
	s.runMS = ms(finished.Sub(started))
	s.envelopeMS = s.jobMS - ms(finished.Sub(submitted))
	s.path = st.ArtifactPath
	s.reportBytes = len(body)

	s.digest = canonical(body)
	if full {
		var sum core.Summary
		if err := json.Unmarshal(body, &sum); err != nil {
			return fail("report: %v", err)
		}
		s.summary = &sum
	}
	s.ok = true
	return s
}

func doJSON(hc *http.Client, req *http.Request, v any) (int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// phase runs both tenants' clients until the deadline and returns every
// job with the phase's wall time.
func (e *servedEnv) phase(d time.Duration, full bool) ([]jobSample, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: len(servedTenants)}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	start := time.Now()
	deadline := start.Add(d)
	results := make([][]jobSample, len(servedTenants))
	var wg sync.WaitGroup
	for t := range servedTenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			results[t] = e.client(hc, t, full, deadline)
		}(t)
	}
	wg.Wait()
	var all []jobSample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, time.Since(start)
}

// evictions scrapes the artifact-cache eviction counter from /metrics.
func (e *servedEnv) evictions() (float64, error) {
	resp, err := http.Get(e.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "cpsrisk_artifact_cache_evictions "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no cpsrisk_artifact_cache_evictions")
}

// servedReferences assesses every pool variant with an uncached
// in-process core.Run under the service's configuration and returns the
// canonical report digests, by tenant and variant.
func servedReferences(e *servedEnv) ([][]string, error) {
	k, err := kb.DefaultKB()
	if err != nil {
		return nil, err
	}
	refs := make([][]string, len(e.pools))
	for t, pool := range e.pools {
		for i, v := range pool {
			cfg, err := plantConfig(v.doc, e.types, k, 2, false)
			if err != nil {
				return nil, err
			}
			cfg.TraceID = traceIDFor(t, i)
			a, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := a.WriteJSON(&buf); err != nil {
				return nil, err
			}
			refs[t] = append(refs[t], canonical(buf.Bytes()))
		}
	}
	return refs, nil
}

// checkJobs counts failed jobs: errors, non-2xx answers, failed or
// degraded jobs, and reports that differ from the reference.
func checkJobs(o *outcome, jobs []jobSample, refs [][]string) {
	for _, j := range jobs {
		o.attempted++
		switch {
		case !j.ok:
			o.failed++
			o.problem("%s job: %s", servedTenants[j.tenant], j.err)
		case j.digest != refs[j.tenant][j.variant]:
			o.failed++
			o.problem("%s variant %d: served report differs from the uncached reference", servedTenants[j.tenant], j.variant)
		}
	}
}

func okJobs(jobs []jobSample) []jobSample {
	var out []jobSample
	for _, j := range jobs {
		if j.ok {
			out = append(out, j)
		}
	}
	return out
}

func field(jobs []jobSample, f func(jobSample) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = f(j)
	}
	return out
}

func runServedEdits(seed int64, seconds time.Duration, trace bool) (*outcome, error) {
	o := newOutcome()
	// Set-up is starting the service and one warm-up pass over every
	// pool entry of both tenants (the cold and first delta jobs), so the
	// measured loop starts from a steady cache rather than an empty one.
	// Each repetition starts a fresh service; the previous one is
	// stopped untimed.
	var e *servedEnv
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = startServed(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := e.warmUp(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.stop() //nolint:errcheck // the result is already decided

	// A traced run splits its time between an untraced phase (service
	// and cache figures, the overhead baseline) and a traced one.
	untraced := seconds
	if trace {
		untraced = seconds / 2
	}
	rssw := startRSSWindows()
	a0 := heapAllocBytes()
	steal := cpuTicks()
	jobs, wall := e.phase(untraced, false)
	stealShare := steal.share()
	alloc := heapAllocBytes() - a0
	rss, err := rssw.median()
	if err != nil {
		return nil, err
	}
	ev, err := e.evictions()
	if err != nil {
		return nil, err
	}
	good := okJobs(jobs)
	lat := field(good, func(j jobSample) float64 { return j.jobMS })
	var traced []jobSample
	if trace {
		traced, _ = e.phase(seconds/2, true)
	}
	refs, err := servedReferences(e)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	checkJobs(o, jobs, refs)
	checkJobs(o, traced, refs)

	paths := map[string]float64{}
	for _, j := range good {
		paths[j.path]++
	}
	n := float64(len(good))
	if !trace {
		o.set("setup_s", median(setups), "s")
		o.set("verdict_ms_p50", median(lat), "ms")
		o.set("verdict_ms_p90", quantile(lat, 0.9), "ms")
		o.set("jobs_per_s", n/wall.Seconds(), "1/s")
		o.set("peak_rss_mb", rss, "MB")
		o.note("job_ms_p50", median(lat), "ms")
		o.note("job_ms_p99", quantile(lat, 0.99), "ms")
		o.note("job_samples", n, "count")
		o.note("host_steal_share", stealShare, "ratio")
		o.note("artifact.warm_share", share(paths["warm"], n), "ratio")
		o.note("artifact.delta_share", share(paths["delta"], n), "ratio")
		o.note("artifact.cold_share", share(paths["cold"], n), "ratio")
		o.note("artifact.evictions", ev, "count")
		o.note("failed_share", share(float64(o.failed), float64(o.attempted)), "ratio")
		return o, nil
	}

	for _, m := range perLayer {
		o.set(m.name, 0, m.unit)
	}
	o.set("artifact.warm_share", share(paths["warm"], n), "ratio")
	o.set("artifact.delta_share", share(paths["delta"], n), "ratio")
	o.set("artifact.cold_share", share(paths["cold"], n), "ratio")
	o.set("artifact.evictions", ev, "count")
	o.set("serve.submit_ms_p50", median(field(good, func(j jobSample) float64 { return j.submitMS })), "ms")
	qw := field(good, func(j jobSample) float64 { return j.queueMS })
	o.set("serve.queue_wait_ms_p50", median(qw), "ms")
	o.set("serve.queue_wait_ms_p99", quantile(qw, 0.99), "ms")
	run := field(good, func(j jobSample) float64 { return j.runMS })
	o.set("serve.run_ms_p50", median(run), "ms")
	o.set("serve.run_ms_p99", quantile(run, 0.99), "ms")
	o.set("serve.report_ms_p50", median(field(good, func(j jobSample) float64 { return j.reportMS })), "ms")
	o.set("serve.polls_per_job", share(sum(field(good, func(j jobSample) float64 { return float64(j.polls) })), n), "count")
	o.set("serve.envelope_ms_p50", median(field(good, func(j jobSample) float64 { return j.envelopeMS })), "ms")
	o.set("core.report_bytes", median(field(good, func(j jobSample) float64 { return float64(j.reportBytes) })), "bytes")
	o.set("core.alloc_mb_per_op", share(float64(alloc)/(1<<20), n), "MB")

	// The traced phase reads each job's own span tree (?full=1): stage
	// times per job, and sweep counters from the jobs that swept (a warm
	// job repeats its cached analysis's counters).
	tgood := okJobs(traced)
	stages := map[string][]float64{}
	sweeps := map[string][]float64{}
	var candidates []float64
	for _, j := range tgood {
		candidates = append(candidates, float64(len(j.summary.Candidates)))
		if j.summary.Trace != nil {
			for _, c := range j.summary.Trace.Children {
				stages[c.Name] = append(stages[c.Name], float64(c.DurUS)/1000)
			}
		}
		if sw := j.summary.Sweep; sw != nil && j.path != "warm" {
			sweeps["hazard.scenarios"] = append(sweeps["hazard.scenarios"], float64(sw.Scenarios))
			sweeps["hazard.executed"] = append(sweeps["hazard.executed"], float64(sw.Executed))
			sweeps["hazard.pruned"] = append(sweeps["hazard.pruned"], float64(sw.Pruned))
			sweeps["hazard.replicated"] = append(sweeps["hazard.replicated"], float64(sw.OrbitHits))
			sweeps["hazard.executed_share"] = append(sweeps["hazard.executed_share"], share(float64(sw.Executed), float64(sw.Scenarios)))
		}
	}
	for name, xs := range sweeps {
		o.set(name, median(xs), o.gated[name].Unit)
	}
	o.set("faults.candidates", median(candidates), "count")
	o.set("sysmodel.busy_ms", median(stages["model"]), "ms")
	o.set("faults.busy_ms", median(stages["candidates"]), "ms")
	o.set("hazard.sweep_ms", median(stages["hazard"]), "ms")
	o.set("mitigation.prepare_ms", median(stages["mitigation"]), "ms")
	tlat := field(tgood, func(j jobSample) float64 { return j.jobMS })
	o.set("trace.overhead_share", share(median(tlat), median(lat))-1, "ratio")
	o.note("job_ms_p50", median(lat), "ms")
	o.note("traced_job_ms_p50", median(tlat), "ms")
	o.note("failed_share", share(float64(o.failed), float64(o.attempted)), "ratio")
	return o, nil
}
