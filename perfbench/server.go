package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/metrics"
	"rdlroute/internal/router"
	"rdlroute/internal/serve"
)

const (
	// pollInterval is how often a client asks whether its job is done.
	pollInterval = time.Millisecond
	// jobTimeout fails a job its client has waited on this long.
	jobTimeout = time.Minute
)

// server is an in-process serve.Server behind a loopback HTTP listener,
// with the default result cache and one job worker per core.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.New(serve.Config{Workers: runtime.NumCPU(), RouteWorkers: runtime.NumCPU()})
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the HTTP listener, then drains the server's workers.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	s.client.CloseIdleConnections()
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	return err
}

// jobView is the part of the job wire view the client reads.
type jobView struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// jobRun is one job as its client saw it.
type jobRun struct {
	rejected  bool // refused with 429
	state     string
	err       string
	result    []byte        // rdl-result/v1 document of a done job
	latency   time.Duration // POST until the first GET that saw the job finished
	queueWait time.Duration // Started − Created, read from serve.Job
	runTime   time.Duration // Finished − Started
}

// submit posts one job body and polls the job until it has finished.
func (s *server) submit(body []byte) (jobRun, error) {
	var jr jobRun
	var v jobView
	t0 := time.Now()
	code, err := s.call(http.MethodPost, "/v1/jobs", body, &v)
	switch {
	case err != nil:
		return jr, err
	case code == http.StatusTooManyRequests:
		jr.rejected = true
		return jr, nil
	case code != http.StatusAccepted:
		return jr, fmt.Errorf("POST /v1/jobs: status %d: %s", code, v.Error)
	}
	for v.State != "done" && v.State != "failed" && v.State != "cancelled" {
		if time.Since(t0) > jobTimeout {
			return jr, fmt.Errorf("job %s still %s after %v", v.ID, v.State, jobTimeout)
		}
		time.Sleep(pollInterval)
		if code, err = s.call(http.MethodGet, "/v1/jobs/"+v.ID, nil, &v); err != nil {
			return jr, err
		}
		if code != http.StatusOK {
			return jr, fmt.Errorf("GET /v1/jobs/%s: status %d: %s", v.ID, code, v.Error)
		}
	}
	jr.latency = time.Since(t0)
	jr.state, jr.err, jr.result = v.State, v.Error, v.Result
	j, ok := s.srv.Job(v.ID)
	if !ok {
		return jr, fmt.Errorf("job %s unknown to the server", v.ID)
	}
	// Waiting on the job orders the reads below after the worker's writes.
	if err := s.srv.Wait(context.Background(), j); err != nil {
		return jr, err
	}
	jr.queueWait = j.Started.Sub(j.Created)
	jr.runTime = j.Finished.Sub(j.Started)
	return jr, nil
}

// call sends one request and decodes the JSON response body into v.
func (s *server) call(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// cacheCounts scrapes /metrics for the result cache's hit and miss totals.
func (s *server) cacheCounts() (hits, misses float64, err error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	fams, err := metrics.ParseText(resp.Body)
	if err != nil {
		return 0, 0, fmt.Errorf("parse /metrics: %w", err)
	}
	value := func(name string) float64 {
		if f, ok := fams[name]; ok && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
		return 0
	}
	return value("rdl_cache_hits_total"), value("rdl_cache_misses_total"), nil
}

// jobBody wraps a codec document as the given field ("design" or "delta")
// of an rdl-job/v1 submission.
func jobBody(field string, doc []byte) ([]byte, error) {
	return json.Marshal(map[string]any{"schema": serve.JobSchema, field: json.RawMessage(doc)})
}

// checkJob decodes a finished job's result against its design and
// DRC-checks the layout. It returns the result (nil when there is none),
// the number of DRC violations, and the problems found.
func checkJob(jr jobRun, d *design.Design) (*router.Result, int, []string) {
	switch {
	case jr.rejected:
		return nil, 0, []string{"refused with 429"}
	case jr.state != "done":
		return nil, 0, []string{fmt.Sprintf("job %s: %s", jr.state, jr.err)}
	}
	res, err := codec.DecodeResult(bytes.NewReader(jr.result), d)
	if err != nil {
		return nil, 0, []string{fmt.Sprintf("decode result: %v", err)}
	}
	if vs := drc.Check(res.Layout); len(vs) > 0 {
		return res, len(vs), []string{fmt.Sprintf("%d DRC violations, first: %v", len(vs), vs[0])}
	}
	return res, 0, nil
}

// resultDigest hashes a result's rdl-result/v1 encoding with its runtime
// zeroed, so two jobs that routed a design the same way compare equal.
func resultDigest(res *router.Result) ([32]byte, error) {
	r := *res
	r.Runtime = 0
	var buf bytes.Buffer
	if err := codec.EncodeResult(&buf, &r); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// serveStats are the serve-layer measurements of a run.
type serveStats struct {
	queueWait, runTime []time.Duration
	hits, misses       float64
	rejected           int
}

func (st *serveStats) add(jr jobRun) {
	switch {
	case jr.rejected:
		st.rejected++
	case jr.state == "done":
		st.queueWait = append(st.queueWait, jr.queueWait)
		st.runTime = append(st.runTime, jr.runTime)
	}
}

func (b *bench) reportServeLayers(st serveStats) {
	q, r := millis(st.queueWait), millis(st.runTime)
	b.set("serve.queue_wait_ms.p50", "ms", percentile(q, 0.50))
	b.set("serve.queue_wait_ms.p95", "ms", percentile(q, 0.95))
	b.set("serve.run_ms.p50", "ms", percentile(r, 0.50))
	b.set("serve.run_ms.p95", "ms", percentile(r, 0.95))
	b.set("serve.cache_hit_ratio", "ratio", ratio(st.hits, st.hits+st.misses))
	b.set("serve.rejected", "count", float64(st.rejected))
}

// serveProbe submits each design of rs to the HTTP service twice. The
// first job misses the result cache and must reproduce the direct routes;
// the second hits it and must return the same result.
func serveProbe(b *bench, rs *routeSet) (st serveStats, err error) {
	sv, err := startServer()
	if err != nil {
		return st, err
	}
	defer func() {
		if cerr := sv.close(); err == nil {
			err = cerr
		}
	}()
	for i, d := range rs.designs {
		body, err := jobBody("design", rs.docs[i])
		if err != nil {
			return st, err
		}
		var miss [32]byte
		for rep := 0; rep < 2; rep++ {
			b.attempted++
			jr, err := sv.submit(body)
			if err != nil {
				b.fail("%s: serve job: %v", d.Name, err)
				continue
			}
			st.add(jr)
			res, nv, problems := checkJob(jr, d)
			b.drcViolations += nv
			if res != nil {
				if ref := rs.ref[i]; ref != nil && (res.Layout.RoutedCount() != ref.routed || res.Layout.Wirelength() != ref.wl) {
					problems = append(problems, fmt.Sprintf("served routed/wirelength %d/%.4f, direct route %d/%.4f",
						res.Layout.RoutedCount(), res.Layout.Wirelength(), ref.routed, ref.wl))
				}
				dg, err := resultDigest(res)
				switch {
				case err != nil:
					problems = append(problems, fmt.Sprintf("encode result: %v", err))
				case rep == 0:
					miss = dg
				case dg != miss:
					problems = append(problems, "cache hit differs from the miss that seeded it")
				}
			}
			if len(problems) > 0 {
				b.fail("%s: serve job %d: %s", d.Name, rep+1, strings.Join(problems, "; "))
			}
		}
	}
	st.hits, st.misses, err = sv.cacheCounts()
	return st, err
}
