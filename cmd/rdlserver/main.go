// Command rdlserver serves the five-stage routing flow over HTTP: a
// bounded job queue in front of a fixed worker pool, with per-job
// timeouts, 429 backpressure when the queue is full, idempotency keys and
// graceful drain on SIGINT/SIGTERM. The server retains the last -flight
// finished jobs; an older job ID answers 404 on every route.
//
// API (JSON everywhere; schemas are versioned, see README):
//
//	POST /v1/jobs             submit {"schema":"rdl-job/v1", "benchmark":"dense1"}
//	                          or an inline rdl-design/v1 document (body ≤ 32 MiB,
//	                          else 413); 202 + job id
//	GET  /v1/jobs/{id}        job state; embeds the rdl-result/v1 doc when done
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/jobs/{id}/trace  the job's observability trace (JSONL)
//	GET  /v1/debug/jobs       flight recorder: the retained finished jobs
//	GET  /v1/debug/jobs/{id}  one retained finished job's post-mortem record
//	GET  /healthz             liveness + queue occupancy
//	GET  /metrics             Prometheus text exposition
//
// Usage:
//
//	rdlserver -addr :8080 -workers 4 -queue 8 -job-timeout 5m
//	rdlserver -flight 256             # retain the last 256 finished jobs
//	rdlserver -log-format json        # structured job/request logs on stderr
//	rdlserver -debug-addr :6060       # pprof on a separate listener
//	rdlserver -smoke                  # self-test: boot, route dense1, DRC-check,
//	                                  # scrape /metrics, check the flight list
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/eco"
	"rdlroute/internal/metrics"
	"rdlroute/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 2, "worker pool size")
		queue      = flag.Int("queue", 8, "job queue depth (excess submissions get 429)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "per-job routing deadline (0 = none)")
		routeW     = flag.Int("route-workers", 1, "default Options.Workers for jobs that submit 0: the per-job worker-pool bound inside the flow (results identical at every value)")
		drain      = flag.Duration("drain", time.Minute, "graceful-shutdown drain budget")
		flight     = flag.Int("flight", 64, "finished jobs retained for GET /v1/jobs/{id} and the flight list; older IDs answer 404 (0 or less = 64)")
		logFormat  = flag.String("log-format", "off", "structured logs on stderr: text, json, or off")
		debugAddr  = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
		smoke      = flag.Bool("smoke", false, "self-test: boot on a random port, route dense1 over HTTP, DRC-check, scrape /metrics, exit")
		printMet   = flag.Bool("print-metrics", false, "with -smoke: dump the scraped /metrics exposition to stdout")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rdlserver:", err)
		return 1
	}

	logger, err := buildLogger(*logFormat)
	if err != nil {
		return fail(err)
	}

	if *smoke {
		if err := runSmoke(*workers, *queue, *printMet); err != nil {
			return fail(err)
		}
		fmt.Println("smoke: PASS")
		return 0
	}

	s := serve.New(serve.Config{
		Workers: *workers, QueueDepth: *queue, JobTimeout: *jobTimeout,
		RouteWorkers: *routeW, FlightSize: *flight, Logger: logger,
	})
	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("rdlserver: listening on %s (workers %d, queue %d)\n", ln.Addr(), *workers, *queue)

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail(fmt.Errorf("debug listener: %w", err))
		}
		fmt.Printf("rdlserver: pprof on %s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, debugMux())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fail(err)
	case <-ctx.Done():
	}
	fmt.Println("rdlserver: draining...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "rdlserver: drain incomplete:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fail(err)
	}
	fmt.Println("rdlserver: drained")
	return 0
}

// buildLogger maps -log-format to a slog logger on stderr (nil = serve
// discards).
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "off", "":
		return nil, nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text, json, or off)", format)
	}
}

// debugMux mounts the pprof handlers on a private mux, so profiling stays
// off the public API listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// smokeFlightSize is the smoke server's retention bound: above its four jobs,
// so none is evicted, and apart from the default 64, so the flight list's
// capacity shows the configured value reached it.
const smokeFlightSize = 8

// boot starts a smoke server on a random loopback port and returns its
// base URL plus a shutdown function.
func boot(workers, queue int) (string, func() error, error) {
	s := serve.New(serve.Config{Workers: workers, QueueDepth: queue, FlightSize: smokeFlightSize})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return err
		}
		return hs.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

type jobView struct {
	ID     string          `json:"id"`
	State  serve.JobState  `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func submitBenchmark(base, name string) (jobView, error) {
	body := fmt.Sprintf(`{"schema":%q,"benchmark":%q}`, serve.JobSchema, name)
	return submitJob(base, body, "")
}

func submitJob(base, body, idemKey string) (jobView, error) {
	var jv jobView
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return jv, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jv, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return jv, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, msg)
	}
	err = json.NewDecoder(resp.Body).Decode(&jv)
	return jv, err
}

func pollDone(base, id string, timeout time.Duration) (jobView, error) {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return jobView{}, err
		}
		var jv jobView
		err = json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if err != nil {
			return jv, err
		}
		switch jv.State {
		case serve.JobDone:
			return jv, nil
		case serve.JobFailed, serve.JobCancelled:
			return jv, fmt.Errorf("job %s: %s (%s)", id, jv.State, jv.Error)
		}
		if time.Now().After(deadline) {
			return jv, fmt.Errorf("job %s: stuck in %s", id, jv.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// smokeMetrics scrapes /metrics, validates the exposition with the
// in-repo parser, and asserts the families a routed job must have
// populated. Returns the raw exposition for -print-metrics.
func smokeMetrics(base string) ([]byte, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("smoke: /metrics Content-Type %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	fams, err := metrics.ParseText(io.TeeReader(resp.Body, &buf))
	if err != nil {
		return nil, fmt.Errorf("smoke: /metrics exposition malformed: %w", err)
	}
	if len(fams) == 0 {
		return nil, errors.New("smoke: /metrics exposition is empty")
	}
	f := fams["rdl_jobs_finished_total"]
	if f == nil {
		return nil, fmt.Errorf("smoke: rdl_jobs_finished_total missing (families: %v)", metrics.Names(fams))
	}
	s, ok := f.Sample(map[string]string{"outcome": "completed"})
	if !ok || s.Value < 1 {
		return nil, fmt.Errorf("smoke: rdl_jobs_finished_total{outcome=completed} = %v, want >= 1", s.Value)
	}
	for _, name := range []string{
		"rdl_stage_duration_seconds", // bridged per-stage flow latency
		"rdl_job_duration_seconds",   // serving-layer job histogram
		"rdl_queue_depth",            // live queue gauge
		"go_goroutines",              // runtime gauges
		"rdl_cache_entries",          // result-cache gauges and counters
		"rdl_cache_bytes",
		"rdl_cache_hits_total",
		"rdl_cache_misses_total",
		"rdl_cache_evictions_total",
	} {
		if fams[name] == nil {
			return nil, fmt.Errorf("smoke: family %s missing from /metrics", name)
		}
	}
	for fam, min := range map[string]float64{
		"rdl_cache_hits_total": 1, "rdl_cache_misses_total": 1,
	} {
		s, ok := fams[fam].Sample(nil)
		if !ok || s.Value < min {
			return nil, fmt.Errorf("smoke: %s = %v, want >= %v after the replay and delta jobs", fam, s.Value, min)
		}
	}
	return buf.Bytes(), nil
}

// smokeFlight fetches the job's flight record and checks it carries the
// post-mortem essentials.
func smokeFlight(base, id string) error {
	var rec serve.FlightRecord
	if err := getJSON(base+"/v1/debug/jobs/"+id, &rec); err != nil {
		return err
	}
	if rec.Outcome != serve.OutcomeCompleted {
		return fmt.Errorf("smoke: flight outcome %q, want completed", rec.Outcome)
	}
	if rec.OptionsFP == "" || rec.Obs == nil || len(rec.Obs.Spans) == 0 {
		return fmt.Errorf("smoke: flight record incomplete: fp=%q obs=%v", rec.OptionsFP, rec.Obs)
	}
	return nil
}

// runSmoke boots a real server, routes dense1 through the HTTP API,
// asserts the decoded result is DRC-clean, then validates the /metrics
// exposition, the job's flight record and the flight list. verify.sh
// runs this in CI.
func runSmoke(workers, queue int, printMetrics bool) error {
	base, stop, err := boot(workers, queue)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Printf("smoke: server at %s\n", base)

	jv, err := submitBenchmark(base, "dense1")
	if err != nil {
		return err
	}
	fmt.Printf("smoke: submitted %s\n", jv.ID)
	if jv, err = pollDone(base, jv.ID, 5*time.Minute); err != nil {
		return err
	}
	if jv.Result == nil {
		return errors.New("smoke: done job carries no result document")
	}
	spec, err := design.DenseSpec("dense1")
	if err != nil {
		return err
	}
	d, err := design.Generate(spec)
	if err != nil {
		return err
	}
	res, err := codec.DecodeResult(bytes.NewReader(jv.Result), d)
	if err != nil {
		return err
	}
	if v := drc.Check(res.Layout); len(v) != 0 {
		return fmt.Errorf("smoke: %d DRC violations; first: %v", len(v), v[0])
	}
	fmt.Printf("smoke: dense1 routability %.1f%% wirelength %.0f, DRC clean\n",
		res.Routability, res.Wirelength)

	// Result cache: resubmitting identical content under a fresh
	// idempotency key must mint a NEW job served from the cache, with its
	// flight record tagged "hit".
	hit, err := submitJob(base, fmt.Sprintf(`{"schema":%q,"benchmark":%q}`, serve.JobSchema, "dense1"), "smoke-replay")
	if err != nil {
		return err
	}
	if hit.ID == jv.ID {
		return fmt.Errorf("smoke: fresh idempotency key deduped to job %s", jv.ID)
	}
	if _, err = pollDone(base, hit.ID, time.Minute); err != nil {
		return err
	}
	if err := smokeCacheTag(base, hit.ID, "hit"); err != nil {
		return err
	}
	fmt.Printf("smoke: resubmission %s served from cache\n", hit.ID)

	// Delta job against the cached base: remove one net, route the edited
	// design, then DRC-check the result.
	hash, err := codec.DesignHash(d)
	if err != nil {
		return err
	}
	dlBody := fmt.Sprintf(`{"schema":%q,"delta":{"schema":%q,"base":%q,"remove_nets":[0]}}`,
		serve.JobSchema, codec.DeltaSchema, hash)
	dj, err := submitJob(base, dlBody, "")
	if err != nil {
		return fmt.Errorf("smoke: delta submit: %w", err)
	}
	if dj, err = pollDone(base, dj.ID, 5*time.Minute); err != nil {
		return err
	}
	edited, err := eco.Apply(d, &eco.Delta{RemoveNets: []int{0}})
	if err != nil {
		return err
	}
	dres, err := codec.DecodeResult(bytes.NewReader(dj.Result), edited)
	if err != nil {
		return fmt.Errorf("smoke: delta result: %w", err)
	}
	if v := drc.Check(dres.Layout); len(v) != 0 {
		return fmt.Errorf("smoke: delta result has %d DRC violations; first: %v", len(v), v[0])
	}
	fmt.Printf("smoke: delta job %s routed %d/%d nets, DRC clean\n",
		dj.ID, dres.RoutedNets, dres.TotalNets)

	// Net-order job: the same circuit under another ordering-registry
	// policy. The option changes results, so it must split the cache key:
	// this is a cache MISS against the first dense1 job.
	oBody := fmt.Sprintf(`{"schema":%q,"benchmark":%q,"options":{"schema":%q,"net_order":"longest"}}`,
		serve.JobSchema, "dense1", codec.OptionsSchema)
	oj, err := submitJob(base, oBody, "")
	if err != nil {
		return fmt.Errorf("smoke: net-order submit: %w", err)
	}
	if oj, err = pollDone(base, oj.ID, 5*time.Minute); err != nil {
		return err
	}
	if err := smokeCacheTag(base, oj.ID, "miss"); err != nil {
		return err
	}
	ores, err := codec.DecodeResult(bytes.NewReader(oj.Result), d)
	if err != nil {
		return fmt.Errorf("smoke: net-order result: %w", err)
	}
	if v := drc.Check(ores.Layout); len(v) != 0 {
		return fmt.Errorf("smoke: net-order result has %d DRC violations; first: %v", len(v), v[0])
	}
	fmt.Printf("smoke: net-order job %s (longest first) routed %d/%d nets, DRC clean\n",
		oj.ID, ores.RoutedNets, ores.TotalNets)

	expo, err := smokeMetrics(base)
	if err != nil {
		return err
	}
	fmt.Printf("smoke: /metrics exposition valid (%d bytes)\n", len(expo))
	if printMetrics {
		os.Stdout.Write(expo)
	}
	if err := smokeFlight(base, jv.ID); err != nil {
		return err
	}
	fmt.Printf("smoke: flight record for %s complete\n", jv.ID)
	if err := smokeRetention(base, oj.ID, dj.ID, hit.ID, jv.ID); err != nil {
		return err
	}
	fmt.Printf("smoke: flight list holds the 4 jobs newest-first (capacity %d), queue idle\n", smokeFlightSize)

	if err := stop(); err != nil {
		return fmt.Errorf("smoke: drain: %w", err)
	}
	return nil
}

// smokeRetention checks the flight list after the smoke's jobs — the
// configured capacity, every job recorded and listed newest-first — and
// that /healthz reports an idle queue.
func smokeRetention(base string, newestFirst ...string) error {
	var list struct {
		Total    int64                `json:"total_recorded"`
		Capacity int                  `json:"capacity"`
		Jobs     []serve.FlightRecord `json:"jobs"`
	}
	if err := getJSON(base+"/v1/debug/jobs", &list); err != nil {
		return err
	}
	var ids []string
	for _, rec := range list.Jobs {
		ids = append(ids, rec.ID)
	}
	got, want := strings.Join(ids, ","), strings.Join(newestFirst, ",")
	if list.Capacity != smokeFlightSize || list.Total != int64(len(newestFirst)) || got != want {
		return fmt.Errorf("smoke: flight list capacity %d total_recorded %d jobs [%s], want %d, %d, [%s]",
			list.Capacity, list.Total, got, smokeFlightSize, len(newestFirst), want)
	}
	var health struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return err
	}
	if health.Queued != 0 || health.Running != 0 {
		return fmt.Errorf("smoke: /healthz queued %d running %d after every job finished, want 0 and 0",
			health.Queued, health.Running)
	}
	return nil
}

// getJSON fetches url and decodes its 200 response body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("smoke: GET %s: %w", url, err)
	}
	return nil
}

// smokeCacheTag asserts the job's flight record carries the expected
// cache outcome.
func smokeCacheTag(base, id, want string) error {
	var rec serve.FlightRecord
	if err := getJSON(base+"/v1/debug/jobs/"+id, &rec); err != nil {
		return err
	}
	if rec.Cache != want {
		return fmt.Errorf("smoke: job %s flight cache tag %q, want %q", id, rec.Cache, want)
	}
	return nil
}
