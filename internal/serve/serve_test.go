package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/layout"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

func dense1(t *testing.T) *design.Design {
	t.Helper()
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// gatedRoute returns a RouteFunc that blocks until the gate closes (or
// the job context fires), making queue-occupancy tests deterministic.
func gatedRoute(gate <-chan struct{}) RouteFunc {
	return func(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error) {
		select {
		case <-gate:
			return &router.Result{Layout: layout.New(d), TotalNets: len(d.Nets)}, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("router: %w", ctx.Err())
		}
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestQueueSaturation429: with 4 workers held at a gate and a queue of 8,
// a burst of 16 submissions accepts exactly 12 and rejects 4 with 429 +
// Retry-After.
func TestQueueSaturation429(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 4, QueueDepth: 8, Route: gatedRoute(gate)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := dense1(t)

	var accepted, rejected []string
	for i := 0; i < 16; i++ {
		status, body := submitDesign(t, ts.URL, d, 0)
		switch status.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, body.ID)
		case http.StatusTooManyRequests:
			if ra := status.Header.Get("Retry-After"); ra == "" {
				t.Fatalf("429 without Retry-After")
			}
			rejected = append(rejected, "x")
		default:
			t.Fatalf("submission %d: unexpected status %d", i, status.StatusCode)
		}
	}
	// The 4 workers have each pulled a job off the queue before blocking
	// at the gate, so the full system holds workers+depth = 12 jobs.
	// Allow one fewer in case a worker has not yet pulled its first job.
	if len(accepted) < 11 || len(accepted) > 12 || len(accepted)+len(rejected) != 16 {
		t.Fatalf("accepted %d, rejected %d; want 12 (±1 pull race) and the rest 429",
			len(accepted), len(rejected))
	}
	close(gate)
	for _, id := range accepted {
		waitState(t, ts.URL, id, JobDone, 10*time.Second)
	}
	shutdown(t, s) // the workers count a job after publishing its state
	fams := scrape(t, s.Registry())
	busy := counterValue(t, fams, "rdl_jobs_rejected_total", map[string]string{"reason": "busy"})
	completed := counterValue(t, fams, "rdl_jobs_finished_total", map[string]string{"outcome": "completed"})
	if busy != float64(len(rejected)) || completed != float64(len(accepted)) {
		t.Fatalf("rejected busy %v, completed %v; want %d, %d", busy, completed, len(rejected), len(accepted))
	}
}

// TestDeadlineAbortsSlowRoute: a 1 ms deadline on a real dense1 route
// fails with DeadlineExceeded, and the next full-length job on the same
// server produces a bit-identical result to an unperturbed run.
func TestDeadlineAbortsSlowRoute(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	d := dense1(t)

	ref, err := router.Route(dense1(t), router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	j, err := s.Submit(d, router.DefaultOptions(), time.Millisecond, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j)
	if j.State != JobFailed || !errors.Is(j.Err, context.DeadlineExceeded) {
		t.Fatalf("deadlined job: state %s err %v, want failed/DeadlineExceeded", j.State, j.Err)
	}

	j2, err := s.Submit(dense1(t), router.DefaultOptions(), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j2)
	if j2.State != JobDone {
		t.Fatalf("follow-up job: state %s err %v", j2.State, j2.Err)
	}
	if got, want := encodeStable(t, j2.Result), encodeStable(t, ref); !bytes.Equal(got, want) {
		t.Fatal("result after a deadlined job differs from an unperturbed run")
	}
}

// TestOversizedGlobalCellsFailsJob: an options document whose global-cell
// grid is finer than the design's lattice fails its job before stage 1,
// and the next job on the server completes. Stage 3 sizes its tile tables
// by cells²; running out of memory there aborts the whole process, which
// no recover in the job runner can catch.
func TestOversizedGlobalCellsFailsJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jv jobView
		decodeBody(t, resp, &jv)
		if resp.StatusCode != http.StatusAccepted || jv.ID == "" {
			t.Fatalf("submit: status %d view %+v", resp.StatusCode, jv)
		}
		return jv.ID
	}
	bad := submit(`{"schema":"rdl-job/v1","benchmark":"dense1","options":{"schema":"rdl-options/v1","global_cells":100000}}`)
	if jv := waitState(t, ts.URL, bad, JobFailed, 30*time.Second); !strings.Contains(jv.Error, "global cells") {
		t.Fatalf("oversized global cells: error %q", jv.Error)
	}
	good := submit(`{"schema":"rdl-job/v1","benchmark":"dense1","options":{"schema":"rdl-options/v1"}}`)
	if jv := waitState(t, ts.URL, good, JobDone, 30*time.Second); jv.Result == nil {
		t.Fatal("follow-up job has no result document")
	}
}

// TestConcurrentDeterminism is the determinism gate: four workers routing
// dense1 concurrently must produce results bit-identical to a sequential
// run.
func TestConcurrentDeterminism(t *testing.T) {
	ref, err := router.Route(dense1(t), router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeStable(t, ref)

	s := New(Config{Workers: 4, QueueDepth: 8})
	defer shutdown(t, s)
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(dense1(t), router.DefaultOptions(), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		waitJob(t, s, j)
		if j.State != JobDone {
			t.Fatalf("job %d: state %s err %v", i, j.State, j.Err)
		}
		if got := encodeStable(t, j.Result); !bytes.Equal(got, want) {
			t.Fatalf("job %d: concurrent result differs from sequential reference", i)
		}
		if v := drc.Check(j.Result.Layout); len(v) != 0 {
			t.Fatalf("job %d: %d DRC violations", i, len(v))
		}
	}
}

// TestGracefulShutdownDrains: shutdown refuses new jobs while queued and
// in-flight jobs run to completion.
func TestGracefulShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Route: gatedRoute(gate)})
	d := dense1(t)

	running, _ := s.Submit(d, router.DefaultOptions(), 0, "")
	queued, _ := s.Submit(d, router.DefaultOptions(), 0, "")
	if running == nil || queued == nil {
		t.Fatal("submissions failed")
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(d, router.DefaultOptions(), 0, ""); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err %v, want ErrDraining", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		if j.State != JobDone {
			t.Fatalf("job %s not drained: state %s err %v", j.ID, j.State, j.Err)
		}
	}
}

// TestIdempotencyKey: replaying a submission with the same key returns
// the same job instead of enqueueing a duplicate.
func TestIdempotencyKey(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4, Route: gatedRoute(gate)})
	d := dense1(t)

	j1, err := s.Submit(d, router.DefaultOptions(), 0, "key-A")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(d, router.DefaultOptions(), 0, "key-A")
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("idempotent replay created a new job: %s vs %s", j1.ID, j2.ID)
	}
	j3, err := s.Submit(d, router.DefaultOptions(), 0, "key-B")
	if err != nil {
		t.Fatal(err)
	}
	if j3 == j1 {
		t.Fatal("distinct keys shared a job")
	}
	close(gate)
	shutdown(t, s)
}

// TestCancelEndpoints: cancelling a queued job is immediate; cancelling a
// running job fires its context.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := New(Config{Workers: 1, QueueDepth: 4, Route: gatedRoute(gate)})
	defer shutdown(t, s)
	d := dense1(t)

	running, _ := s.Submit(d, router.DefaultOptions(), 0, "")
	queued, _ := s.Submit(d, router.DefaultOptions(), 0, "")

	if !s.Cancel(queued) {
		t.Fatal("cancel queued failed")
	}
	waitJob(t, s, queued)
	if queued.State != JobCancelled {
		t.Fatalf("queued job state %s, want cancelled", queued.State)
	}

	// Wait until the worker picks up the running job, then cancel it.
	for {
		s.mu.Lock()
		st := running.State
		s.mu.Unlock()
		if st == JobRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(running) {
		t.Fatal("cancel running failed")
	}
	waitJob(t, s, running)
	if running.State != JobCancelled || !errors.Is(running.Err, context.Canceled) {
		t.Fatalf("running job: state %s err %v, want cancelled/Canceled", running.State, running.Err)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface on a real route: submit
// dense1 by benchmark name, poll to completion, decode the embedded
// result, check DRC, stream the trace, read health and metrics.
func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"schema":"rdl-job/v1","benchmark":"dense1","options":{"schema":"rdl-options/v1"}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jv jobView
	decodeBody(t, resp, &jv)
	if resp.StatusCode != http.StatusAccepted || jv.ID == "" {
		t.Fatalf("submit: status %d view %+v", resp.StatusCode, jv)
	}

	final := waitState(t, ts.URL, jv.ID, JobDone, 30*time.Second)
	if final.Result == nil {
		t.Fatal("done job has no result document")
	}
	res, err := codec.DecodeResult(bytes.NewReader(final.Result), dense1(t))
	if err != nil {
		t.Fatal(err)
	}
	if v := drc.Check(res.Layout); len(v) != 0 {
		t.Fatalf("served result has %d DRC violations; first: %v", len(v), v[0])
	}

	// Trace: parseable JSONL with the five stage spans.
	tr, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL(tr.Body)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}

	// Health and metrics.
	var health struct {
		Status string `json:"status"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, hr, &health)
	if health.Status != "ok" {
		t.Fatalf("health: %+v", health)
	}
	pr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(pr.Body)
	pr.Body.Close()
	if err != nil {
		t.Fatalf("prometheus exposition: %v", err)
	}
	if ct := pr.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("exposition content-type %q", ct)
	}
	if got, ok := fams["rdl_jobs_finished_total"].Sample(map[string]string{"outcome": "completed"}); !ok || got.Value < 1 {
		t.Fatalf("rdl_jobs_finished_total{completed} = %+v ok=%v", got, ok)
	}

	// Unknown job → 404.
	nf, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", nf.StatusCode)
	}

	// Malformed design document → 400 with codec kind/path.
	bad := `{"schema":"rdl-job/v1","design":{"schema":"rdl-design/v99"}}`
	br, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var ev errorView
	decodeBody(t, br, &ev)
	if br.StatusCode != http.StatusBadRequest || ev.Kind != "schema" {
		t.Fatalf("bad design: status %d body %+v", br.StatusCode, ev)
	}

	shutdown(t, s)
}

// TestOversizedBody413: a job body past maxJobBody is refused with 413
// once the limit is read, and the server goes on serving.
func TestOversizedBody413(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Route: tracedRoute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An inline design string 1 KiB past the limit, generated as it is sent.
	body := io.MultiReader(strings.NewReader(`{"schema":"rdl-job/v1","design":"`),
		io.LimitReader(endlessX{}, maxJobBody+1024))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var ev errorView
	decodeBody(t, resp, &ev)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || ev.Error == "" {
		t.Fatalf("oversized body: status %d body %+v, want 413 with an error", resp.StatusCode, ev)
	}

	resp, jv := submitDesign(t, ts.URL, dense1(t), 0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after a 413: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, jv.ID, JobDone, 30*time.Second)
	shutdown(t, s)
}

// endlessX is an endless stream of 'x' bytes.
type endlessX struct{}

func (endlessX) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// --- helpers ---

func submitDesign(t *testing.T, url string, d *design.Design, timeoutMS int) (*http.Response, jobView) {
	t.Helper()
	var dbuf bytes.Buffer
	if err := codec.EncodeDesign(&dbuf, d); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{
		"schema": JobSchema,
		"design": json.RawMessage(dbuf.Bytes()),
	}
	if timeoutMS > 0 {
		req["timeout_ms"] = timeoutMS
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jv jobView
	if resp.StatusCode == http.StatusAccepted {
		decodeBody(t, resp, &jv)
	} else {
		resp.Body.Close()
	}
	return resp, jv
}

func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func waitJob(t *testing.T, s *Server, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Wait(ctx, j); err != nil {
		t.Fatalf("wait %s: %v", j.ID, err)
	}
}

func waitState(t *testing.T, url, id string, want JobState, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jv jobView
		decodeBody(t, resp, &jv)
		if jv.State == want {
			return jv
		}
		if jv.State == JobFailed || jv.State == JobCancelled {
			t.Fatalf("job %s reached %s (err %s), want %s", id, jv.State, jv.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, jv.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// encodeStable encodes a result with the runtime cleared, for
// bit-identical comparisons across runs.
func encodeStable(t *testing.T, res *router.Result) []byte {
	t.Helper()
	cp := *res
	cp.Runtime = 0
	var buf bytes.Buffer
	if err := codec.EncodeResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
