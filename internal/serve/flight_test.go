package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/layout"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// TestJobTableRetention: the job table keeps live jobs plus the last
// FlightSize terminal ones. An evicted job answers 404 on every route and
// frees its idempotency key; the flight list is the retained tail,
// newest first.
func TestJobTableRetention(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, FlightSize: 3, Route: tracedRoute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := dense1(t)
	for i := 1; i <= 10; i++ {
		key := ""
		if i == 1 {
			key = "key-1"
		}
		j, err := s.Submit(d, router.DefaultOptions(), 0, key)
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, j)
	}

	s.mu.Lock()
	njobs, idem := len(s.jobs), len(s.idem)
	s.mu.Unlock()
	if njobs != 3 || idem != 0 {
		t.Errorf("job table holds %d jobs and %d idempotency keys, want 3 and 0", njobs, idem)
	}

	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/job-1"},
		{http.MethodGet, "/v1/jobs/job-1/trace"},
		{http.MethodPost, "/v1/jobs/job-1/cancel"},
		{http.MethodGet, "/v1/debug/jobs/job-1"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s on an evicted job: status %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}

	var list flightListView
	lr, err := http.Get(ts.URL + "/v1/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, lr, &list)
	var ids []string
	for _, r := range list.Jobs {
		ids = append(ids, r.ID)
	}
	if got := strings.Join(ids, ","); list.Total != 10 || list.Capacity != 3 || got != "job-10,job-9,job-8" {
		t.Errorf("flight list = total %d capacity %d jobs %s, want 10/3/job-10,job-9,job-8",
			list.Total, list.Capacity, got)
	}

	j, err := s.Submit(d, router.DefaultOptions(), 0, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-11" {
		t.Errorf("replaying an evicted job's key returned %s, want a new job-11", j.ID)
	}
	waitJob(t, s, j)
	shutdown(t, s)
}

// tracedRoute emits a stage span and a counter through the job tracer,
// so flight records and bridged metrics have content without routing for
// real.
func tracedRoute(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error) {
	end := obs.Stage(obs.Or(opts.Tracer), "sequential")
	tr := obs.Or(opts.Tracer)
	if tr.Enabled() {
		tr.Count("astar.searches", 7)
	}
	end()
	return &router.Result{Layout: layout.New(d), TotalNets: len(d.Nets), RoutedNets: len(d.Nets), Routability: 100}, nil
}

// TestFlightEndpoints: terminal jobs appear at /v1/debug/jobs and
// /v1/debug/jobs/{id} with outcome, timings, options fingerprint and the
// per-job obs snapshot.
func TestFlightEndpoints(t *testing.T) {
	// CacheEntries -1: identical resubmissions must route (and trace) for
	// real here; cache-hit flight tagging has its own tests in cache_test.go.
	s := New(Config{Workers: 1, QueueDepth: 4, FlightSize: 2, Route: tracedRoute, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := dense1(t)

	var last *Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(d, router.DefaultOptions(), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, j)
		last = j
	}

	var list flightListView
	lr, err := http.Get(ts.URL + "/v1/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, lr, &list)
	if list.Total != 3 || list.Capacity != 2 || len(list.Jobs) != 2 {
		t.Fatalf("flight list = total %d capacity %d len %d, want 3/2/2", list.Total, list.Capacity, len(list.Jobs))
	}
	if list.Jobs[0].ID != last.ID {
		t.Errorf("newest record is %s, want %s", list.Jobs[0].ID, last.ID)
	}

	var rec FlightRecord
	rr, err := http.Get(ts.URL + "/v1/debug/jobs/" + last.ID)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, rr, &rec)
	if rec.Outcome != OutcomeCompleted || rec.State != JobDone {
		t.Errorf("record outcome/state = %s/%s", rec.Outcome, rec.State)
	}
	if rec.Design != d.Name || rec.Nets != len(d.Nets) {
		t.Errorf("record design = %s nets %d", rec.Design, rec.Nets)
	}
	if rec.OptionsFP == "" {
		t.Errorf("record has no options fingerprint")
	}
	if rec.Obs == nil || rec.Obs.Counters["astar.searches"] != 7 {
		t.Errorf("record obs snapshot = %+v, want astar.searches 7", rec.Obs)
	}
	if len(rec.Obs.Spans) == 0 || rec.Obs.Spans[0].Name != "stage:sequential" {
		t.Errorf("record obs spans = %+v, want stage:sequential", rec.Obs.Spans)
	}
	if rec.Routability != 100 || rec.RoutedNets != len(d.Nets) {
		t.Errorf("record result fields = %+v", rec)
	}

	// Evicted and unknown jobs 404.
	for _, id := range []string{"job-1", "job-999"} {
		nf, err := http.Get(ts.URL + "/v1/debug/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		nf.Body.Close()
		if nf.StatusCode != http.StatusNotFound {
			t.Errorf("debug %s: status %d, want 404", id, nf.StatusCode)
		}
	}
	shutdown(t, s)
}

// scrape parses a registry's Prometheus exposition.
func scrape(t *testing.T, reg *metrics.Registry) map[string]*metrics.Family {
	t.Helper()
	fams, err := metrics.ParseText(bytes.NewReader(reg.Expose()))
	if err != nil {
		t.Fatalf("exposition: %v", err)
	}
	return fams
}

func counterValue(t *testing.T, fams map[string]*metrics.Family, name string, labels map[string]string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing (have %v)", name, metrics.Names(fams))
	}
	s, ok := f.Sample(labels)
	if !ok {
		t.Fatalf("family %s has no sample with labels %v", name, labels)
	}
	return s.Value
}

// TestOutcomeCounters drives one job through each terminal outcome and
// checks rdl_jobs_finished_total plus the bridged flow counters.
func TestOutcomeCounters(t *testing.T) {
	gate := make(chan struct{})
	failing := func(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error) {
		return nil, fmt.Errorf("boom")
	}
	d := dense1(t)

	// completed + bridged counters
	s := New(Config{Workers: 1, Route: tracedRoute})
	j, err := s.Submit(d, router.DefaultOptions(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j)
	fams := scrape(t, s.Registry())
	if got := counterValue(t, fams, "rdl_jobs_finished_total", map[string]string{"outcome": "completed"}); got != 1 {
		t.Errorf("completed = %v, want 1", got)
	}
	if got := counterValue(t, fams, "rdl_astar_searches_total", nil); got != 7 {
		t.Errorf("bridged astar searches = %v, want 7", got)
	}
	if _, ok := fams["rdl_stage_duration_seconds"].Sample(map[string]string{"stage": "sequential"}); !ok {
		t.Errorf("per-stage latency histogram missing sequential series")
	}
	if got := counterValue(t, fams, "rdl_jobs_submitted_total", nil); got != 1 {
		t.Errorf("submitted = %v, want 1", got)
	}
	if fams["go_goroutines"] == nil || fams["go_heap_alloc_bytes"] == nil {
		t.Errorf("runtime gauges missing")
	}
	shutdown(t, s)

	// failed
	s = New(Config{Workers: 1, Route: failing})
	if j, err = s.Submit(d, router.DefaultOptions(), 0, ""); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j)
	if got := counterValue(t, scrape(t, s.Registry()), "rdl_jobs_finished_total", map[string]string{"outcome": "failed"}); got != 1 {
		t.Errorf("failed = %v, want 1", got)
	}
	shutdown(t, s)

	// timeout: gated route + 20ms deadline
	s = New(Config{Workers: 1, Route: gatedRoute(gate)})
	if j, err = s.Submit(d, router.DefaultOptions(), 20*time.Millisecond, ""); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j)
	fams = scrape(t, s.Registry())
	if got := counterValue(t, fams, "rdl_jobs_finished_total", map[string]string{"outcome": "timeout"}); got != 1 {
		t.Errorf("timeout = %v, want 1", got)
	}
	if rec, ok := s.flightRecord(j.ID); !ok || rec.Outcome != OutcomeTimeout {
		t.Errorf("flight outcome = %+v ok=%v, want timeout", rec, ok)
	}

	// canceled: a running job (gated) cancelled explicitly
	if j, err = s.Submit(d, router.DefaultOptions(), 0, ""); err != nil {
		t.Fatal(err)
	}
	for !s.Cancel(j) {
		time.Sleep(time.Millisecond)
	}
	waitJob(t, s, j)
	if got := counterValue(t, scrape(t, s.Registry()), "rdl_jobs_finished_total", map[string]string{"outcome": "canceled"}); got != 1 {
		t.Errorf("canceled = %v, want 1", got)
	}
	shutdown(t, s)

	// rejected: queue full
	s = New(Config{Workers: 1, QueueDepth: 1, Route: gatedRoute(gate)})
	var lastErr error
	for i := 0; i < 4; i++ {
		_, err := s.Submit(d, router.DefaultOptions(), 0, "")
		if err != nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Fatal("queue never saturated")
	}
	fams = scrape(t, s.Registry())
	if got := counterValue(t, fams, "rdl_jobs_rejected_total", map[string]string{"reason": "busy"}); got < 1 {
		t.Errorf("rejected busy = %v, want >= 1", got)
	}
	close(gate)
	shutdown(t, s)
}

// TestStructuredJobLogs: the slog stream carries accepted/started/
// finished lines correlated by job ID.
func TestStructuredJobLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(Config{Workers: 1, Route: tracedRoute, Logger: logger})
	d := dense1(t)
	j, err := s.Submit(d, router.DefaultOptions(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j)
	shutdown(t, s)

	var accepted, started, finished bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if rec["job"] != j.ID {
			continue
		}
		switch rec["msg"] {
		case "job accepted":
			accepted = true
		case "job started":
			started = true
		case "job finished":
			finished = true
			if rec["outcome"] != OutcomeCompleted {
				t.Errorf("finished log outcome = %v", rec["outcome"])
			}
		}
	}
	if !accepted || !started || !finished {
		t.Errorf("log stream missing lifecycle lines: accepted=%v started=%v finished=%v\n%s",
			accepted, started, finished, buf.String())
	}
}
