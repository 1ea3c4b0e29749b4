// Command rdlserver serves the five-stage routing flow over HTTP: a
// bounded job queue in front of a fixed worker pool, with per-job
// timeouts, 429 backpressure when the queue is full, idempotency keys and
// graceful drain on SIGINT/SIGTERM.
//
// API (JSON everywhere; schemas are versioned, see README):
//
//	POST /v1/jobs             submit {"schema":"rdl-job/v1", "benchmark":"dense1"}
//	                          or an inline rdl-design/v1 document; 202 + job id
//	GET  /v1/jobs/{id}        job state; embeds the rdl-result/v1 doc when done
//	POST /v1/jobs/{id}/cancel cancel a queued or running job
//	GET  /v1/jobs/{id}/trace  the job's observability trace (JSONL)
//	GET  /v1/debug/jobs       flight recorder: the last N terminal jobs
//	GET  /v1/debug/jobs/{id}  one job's post-mortem record
//	GET  /healthz             liveness + queue occupancy
//	GET  /metrics             Prometheus text exposition (JSON via ?format=json)
//
// Usage:
//
//	rdlserver -addr :8080 -workers 4 -queue 8 -job-timeout 5m
//	rdlserver -log-format json        # structured job/request logs on stderr
//	rdlserver -debug-addr :6060       # pprof on a separate listener
//	rdlserver -smoke                  # self-test: boot, route dense1, DRC-check,
//	                                  # scrape /metrics, fetch the flight record
//	rdlserver -throughput 1,2,4       # jobs/min at several worker counts
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
	"strconv"
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
		routePort  = flag.Int("route-portfolio", 0, "default Options.OrderPortfolio for jobs that submit 0: race the first N ordering-registry policies and keep the best result (changes results, so it is folded into the cache key; 0 = off, max 16)")
		drain      = flag.Duration("drain", time.Minute, "graceful-shutdown drain budget")
		flight     = flag.Int("flight", 64, "flight-recorder capacity: post-mortem records of the last N terminal jobs (-1 disables)")
		logFormat  = flag.String("log-format", "off", "structured logs on stderr: text, json, or off")
		debugAddr  = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled)")
		smoke      = flag.Bool("smoke", false, "self-test: boot on a random port, route dense1 over HTTP, DRC-check, scrape /metrics, exit")
		printMet   = flag.Bool("print-metrics", false, "with -smoke: dump the scraped /metrics exposition to stdout")
		throughput = flag.String("throughput", "", "comma-separated worker counts: measure jobs/min per count and exit")
		circuits   = flag.String("circuits", "dense1,dense2,dense3", "benchmark circuits for -throughput")
		jobs       = flag.Int("jobs", 4, "jobs per circuit for -throughput")
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
	if *throughput != "" {
		if err := runThroughput(*throughput, *circuits, *jobs); err != nil {
			return fail(err)
		}
		return 0
	}

	s := serve.New(serve.Config{
		Workers: *workers, QueueDepth: *queue, JobTimeout: *jobTimeout,
		RouteWorkers: *routeW, RoutePortfolio: *routePort,
		FlightSize: *flight, Logger: logger,
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

// boot starts a server on a random loopback port and returns its base
// URL plus a shutdown function. cacheEntries < 0 disables the result
// cache (the throughput sweep must route every job for real).
func boot(workers, queue, cacheEntries int) (string, *serve.Server, func() error, error) {
	s := serve.New(serve.Config{Workers: workers, QueueDepth: queue, CacheEntries: cacheEntries})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
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
	return "http://" + ln.Addr().String(), s, stop, nil
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
		"rdl_portfolio_raced_total", // ordering-portfolio race telemetry
		"rdl_portfolio_candidates_total",
		"rdl_portfolio_winner_index_total", // may legitimately be 0 (policy 0 won)
		"rdl_portfolio_routed_delta_total",
	} {
		if fams[name] == nil {
			return nil, fmt.Errorf("smoke: family %s missing from /metrics", name)
		}
	}
	for fam, min := range map[string]float64{
		"rdl_cache_hits_total": 1, "rdl_cache_misses_total": 1,
		"rdl_portfolio_raced_total": 1, "rdl_portfolio_candidates_total": 4,
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
	resp, err := http.Get(base + "/v1/debug/jobs/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: flight record for %s: HTTP %d", id, resp.StatusCode)
	}
	var rec serve.FlightRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return fmt.Errorf("smoke: flight record: %w", err)
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
// exposition and the job's flight record. verify.sh runs this in CI.
func runSmoke(workers, queue int, printMetrics bool) error {
	base, _, stop, err := boot(workers, queue, 0)
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

	// Portfolio job: the same circuit with an ordering portfolio raced
	// through stage 4. The options differ, so this must be a cache MISS
	// (the portfolio changes results and splits the cache key), and the
	// race must populate the rdl_portfolio_* metric families.
	pBody := fmt.Sprintf(`{"schema":%q,"benchmark":%q,"options":{"schema":%q,"order_portfolio":4}}`,
		serve.JobSchema, "dense1", codec.OptionsSchema)
	pj, err := submitJob(base, pBody, "")
	if err != nil {
		return fmt.Errorf("smoke: portfolio submit: %w", err)
	}
	if pj, err = pollDone(base, pj.ID, 5*time.Minute); err != nil {
		return err
	}
	if err := smokeCacheTag(base, pj.ID, "miss"); err != nil {
		return err
	}
	pres, err := codec.DecodeResult(bytes.NewReader(pj.Result), d)
	if err != nil {
		return fmt.Errorf("smoke: portfolio result: %w", err)
	}
	if v := drc.Check(pres.Layout); len(v) != 0 {
		return fmt.Errorf("smoke: portfolio result has %d DRC violations; first: %v", len(v), v[0])
	}
	if pres.RoutedNets < res.RoutedNets {
		return fmt.Errorf("smoke: portfolio job routed %d nets, single-policy job routed %d (the race must never lose)",
			pres.RoutedNets, res.RoutedNets)
	}
	fmt.Printf("smoke: portfolio job %s raced 4 policies, routability %.1f%%, DRC clean\n",
		pj.ID, pres.Routability)

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

	if err := stop(); err != nil {
		return fmt.Errorf("smoke: drain: %w", err)
	}
	return nil
}

// smokeCacheTag asserts the job's flight record carries the expected
// cache outcome.
func smokeCacheTag(base, id, want string) error {
	resp, err := http.Get(base + "/v1/debug/jobs/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rec serve.FlightRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return fmt.Errorf("smoke: flight record: %w", err)
	}
	if rec.Cache != want {
		return fmt.Errorf("smoke: job %s flight cache tag %q, want %q", id, rec.Cache, want)
	}
	return nil
}

// runThroughput measures jobs/min at each worker count: per circuit it
// submits -jobs copies and waits for all of them, all through the HTTP
// API (the EXPERIMENTS.md serving-throughput table).
func runThroughput(workerList, circuitList string, jobsPer int) error {
	var counts []int
	for _, f := range strings.Split(workerList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad worker count %q", f)
		}
		counts = append(counts, n)
	}
	circuits := strings.Split(circuitList, ",")
	fmt.Printf("%-8s %-28s %8s %10s\n", "workers", "circuits", "jobs", "jobs/min")
	for _, w := range counts {
		// Cache disabled: identical submissions must route for real, or
		// jobs/min would measure the cache instead of the workers.
		base, _, stop, err := boot(w, 2*jobsPer*len(circuits), -1)
		if err != nil {
			return err
		}
		var ids []string
		t0 := time.Now()
		for _, c := range circuits {
			for i := 0; i < jobsPer; i++ {
				jv, err := submitBenchmark(base, strings.TrimSpace(c))
				if err != nil {
					stop()
					return err
				}
				ids = append(ids, jv.ID)
			}
		}
		for _, id := range ids {
			if _, err := pollDone(base, id, 10*time.Minute); err != nil {
				stop()
				return err
			}
		}
		dt := time.Since(t0)
		if err := stop(); err != nil {
			return err
		}
		fmt.Printf("%-8d %-28s %8d %10.1f\n",
			w, circuitList, len(ids), float64(len(ids))/dt.Minutes())
	}
	return nil
}
