// Package serve is the embeddable routing service: a bounded job queue in
// front of a fixed worker pool, each worker running the five-stage flow
// through router.RouteContext with a per-job deadline. The HTTP surface
// (POST /v1/jobs, GET /v1/jobs/{id}, trace streaming, health, metrics)
// lives in http.go; this file is the queue/worker/lifecycle core.
//
// The job table is the one record of a job: it holds every queued and
// running job plus the last Config.FlightSize terminal ones, which double
// as the flight recorder. A job turning terminal evicts the oldest
// terminal job, so memory is bounded by the queue, the pool and that tail.
//
// Backpressure is explicit: a full queue rejects submissions immediately
// (HTTP 429) instead of queueing unboundedly, so a caller can retry
// against another replica. Shutdown is graceful: new submissions are
// refused, queued and in-flight jobs drain, then the workers exit.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/metrics"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// RouteFunc runs one routing job. Production use is router.RouteContext;
// tests substitute gates and failures.
type RouteFunc func(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error)

// Config sizes the service.
type Config struct {
	// Workers is the fixed worker-pool size (default 2). Each worker runs
	// one job at a time; jobs never share a lattice, so workers need no
	// coordination beyond the queue.
	Workers int
	// QueueDepth bounds the waiting room (default 8). A submission that
	// finds the queue full is rejected with ErrBusy; total in-system
	// capacity is QueueDepth + Workers.
	QueueDepth int
	// JobTimeout caps each job's run time (0 = no cap). A request may
	// lower it per job but never raise it.
	JobTimeout time.Duration
	// RouteWorkers is the default Options.Workers applied to jobs whose
	// submitted options leave it 0. With several server workers each
	// running a job, 1 (routes stay sequential; job-level parallelism
	// fills the cores) is the usual choice; 0 keeps the router default
	// of GOMAXPROCS. Results are identical at every value.
	RouteWorkers int
	// Route substitutes the routing function (default router.RouteContext).
	Route RouteFunc

	// CacheEntries bounds the content-addressed result cache (default 32
	// entries; negative disables caching). A submission whose canonical
	// (design, options) encoding matches a cached completed run is
	// answered from the cache inside the worker — the job and its flight
	// record still exist, tagged with the cache outcome.
	CacheEntries int
	// CacheBytes bounds the cache's retained bytes, counted as the encoded
	// size of each cached result (default 256 MiB; 0 means the default).
	CacheBytes int64

	// Registry receives the server's production metrics (job outcome
	// counters, latency histograms, queue gauges, Go runtime gauges, and
	// the obs-bridged flow series). Nil creates a private registry;
	// share one only across components scraped together.
	Registry *metrics.Registry
	// FlightSize bounds the terminal jobs the server retains (default 64;
	// 0 or less means the default, since a finished job must stay
	// readable). They answer GET /v1/jobs/{id} and form the flight list;
	// an evicted job's ID answers 404 and its idempotency key is freed.
	FlightSize int
	// Logger receives structured request/job logs with job-ID
	// correlation. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 32
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 64
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.Route == nil {
		c.Route = router.RouteContext
	}
	return c
}

// discardHandler drops every record (the default when Config.Logger is
// nil; slog.DiscardHandler needs Go 1.24).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Job is one routing request moving through the queue. All mutable fields
// are guarded by the owning Server's mu.
type Job struct {
	ID    string
	State JobState

	d       *design.Design
	opts    router.Options
	timeout time.Duration
	idemKey string // freed together with the job when it is evicted

	Result *router.Result
	Err    error

	Created  time.Time
	Started  time.Time
	Finished time.Time

	cancel context.CancelFunc // non-nil while running; also used by Cancel
	done   chan struct{}      // closed when the job reaches a terminal state

	// timedOut marks a failure caused by the per-job deadline, so the
	// outcome counter and flight record report "timeout" rather than a
	// generic failure.
	timedOut bool

	// cacheOutcome records how the result cache treated this job
	// ("hit", "miss", or "" when caching is disabled or the job never
	// ran).
	cacheOutcome string

	trace  *lockedBuffer
	tracer *obs.JSONL
	coll   *obs.Collector // per-job bounded collector for the flight record
}

// lockedBuffer is a mutex-guarded byte buffer: the job's JSONL tracer
// writes into it from the worker while the trace endpoint reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// ErrBusy is returned by Submit when the queue is full.
var ErrBusy = fmt.Errorf("serve: queue full")

// ErrDraining is returned by Submit after Shutdown began.
var ErrDraining = fmt.Errorf("serve: server draining")

// Server is the routing service core.
type Server struct {
	cfg   Config
	queue chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job   // live jobs plus the retained terminal tail
	idem     map[string]string // idempotency key → ID of a job in jobs
	tail     []*Job            // retained terminal jobs, oldest first
	finished int64             // jobs ever turned terminal
	nextID   int
	draining bool
	running  int

	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup

	met   *serverMetrics
	cache *resultCache
	log   *slog.Logger
}

// jobCollectorBound caps each per-job collector's retained raw records;
// aggregates (the numbers the flight record reports) stay exact.
const jobCollectorBound = 2048

// New starts a server: the worker pool is live on return.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		idem:     make(map[string]string),
		baseCtx:  ctx,
		baseStop: stop,
		cache:    newResultCache(cfg.CacheEntries, cfg.CacheBytes, cfg.Registry),
		log:      cfg.Logger,
	}
	s.met = newServerMetrics(cfg.Registry, s)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Registry returns the server's metrics registry (for exposition and for
// mounting extra collectors).
func (s *Server) Registry() *metrics.Registry { return s.cfg.Registry }

// Submit enqueues a routing job. A non-empty idempotency key returns the
// existing job on replay instead of enqueueing a duplicate. A full queue
// returns ErrBusy; a draining server returns ErrDraining.
func (s *Server) Submit(d *design.Design, opts router.Options, timeout time.Duration, idemKey string) (*Job, error) {
	if s.cfg.JobTimeout > 0 && (timeout <= 0 || timeout > s.cfg.JobTimeout) {
		timeout = s.cfg.JobTimeout
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejected.With("draining").Inc()
		s.log.Info("job rejected", "reason", "draining")
		return nil, ErrDraining
	}
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			s.met.deduped.Inc()
			s.log.Info("job deduplicated", "job", j.ID, "idempotency_key", idemKey)
			return j, nil
		}
	}
	s.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", s.nextID),
		State:   JobQueued,
		d:       d,
		opts:    opts,
		timeout: timeout,
		idemKey: idemKey,
		Created: time.Now(),
		done:    make(chan struct{}),
		trace:   &lockedBuffer{},
	}
	j.tracer = obs.NewJSONL(j.trace)
	j.coll = obs.NewBoundedCollector(jobCollectorBound)

	select {
	case s.queue <- j:
	default:
		s.nextID-- // rejected jobs don't consume IDs
		s.mu.Unlock()
		s.met.rejected.With("busy").Inc()
		s.log.Info("job rejected", "reason", "busy")
		return nil, ErrBusy
	}
	s.jobs[j.ID] = j
	if idemKey != "" {
		s.idem[idemKey] = j.ID
	}
	s.mu.Unlock()
	s.met.submitted.Inc()
	s.log.Info("job accepted", "job", j.ID, "design", d.Name,
		"nets", len(d.Nets), "timeout", timeout.String())
	return j, nil
}

// Job returns a job by ID: a queued or running job, or one of the last
// Config.FlightSize terminal jobs.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retire appends a job that just turned terminal to the retained tail
// and evicts the oldest terminal job, with its idempotency key, once the
// tail exceeds Config.FlightSize. Callers hold s.mu.
func (s *Server) retire(j *Job) {
	s.finished++
	s.tail = append(s.tail, j)
	if len(s.tail) <= s.cfg.FlightSize {
		return
	}
	old := s.tail[0]
	s.tail = append(s.tail[:0], s.tail[1:]...)
	delete(s.jobs, old.ID)
	if old.idemKey != "" {
		delete(s.idem, old.idemKey)
	}
}

// Cancel cancels a queued or running job. Cancelling a queued job marks
// it terminal immediately (the worker skips it); cancelling a running job
// fires its context. Returns false for an already-terminal job.
func (s *Server) Cancel(j *Job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch j.State {
	case JobQueued:
		j.State = JobCancelled
		j.Err = context.Canceled
		j.Finished = time.Now()
		s.retire(j)
		s.met.finished.With(OutcomeCanceled).Inc()
		s.log.Info("job cancelled while queued", "job", j.ID)
		close(j.done)
		return true
	case JobRunning:
		j.cancel()
		return true
	default:
		return false
	}
}

// Wait blocks until the job reaches a terminal state or ctx fires.
func (s *Server) Wait(ctx context.Context, j *Job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains gracefully: new submissions are refused, queued and
// in-flight jobs run to completion, then the workers exit. If ctx fires
// first, in-flight jobs are cancelled and Shutdown returns ctx's error
// after the workers finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.baseStop() // cancel in-flight jobs, then wait for the workers
		<-drained
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

func (s *Server) run(j *Job) {
	s.mu.Lock()
	if j.State != JobQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.State = JobRunning
	j.Started = time.Now()
	j.cancel = cancel
	s.running++
	opts := j.opts
	if opts.Workers == 0 {
		opts.Workers = s.cfg.RouteWorkers
	}
	opts.Tracer = obs.Multi(j.tracer, j.coll, s.met.bridge)
	s.mu.Unlock()
	defer cancel()

	s.met.queueWait.Observe(j.Started.Sub(j.Created).Seconds())
	s.log.Info("job started", "job", j.ID, "design", j.d.Name,
		"queue_ms", float64(j.Started.Sub(j.Created))/float64(time.Millisecond))

	// Result cache: the content address covers the canonical (design,
	// options) bytes. The check lives here — not in Submit — so every
	// accepted submission mints a real job and flight record whatever the
	// cache says; a hit merely skips the routing work.
	var res *router.Result
	var err error
	cacheOutcome := ""
	key := ""
	if s.cache != nil {
		key = cacheKey(j.d, opts)
		if cached, ok := s.cache.get(key); ok {
			res, cacheOutcome = cached, "hit"
		} else {
			cacheOutcome = "miss"
		}
	}
	if res == nil {
		if res, err = s.cfg.Route(ctx, j.d, opts); err == nil {
			s.cache.put(key, j.d, res)
		}
	}
	j.tracer.Flush()

	s.mu.Lock()
	j.Result = res
	j.Err = err
	j.cacheOutcome = cacheOutcome
	j.Finished = time.Now()
	s.running--
	switch {
	case err == nil:
		j.State = JobDone
	case errors.Is(err, context.Canceled):
		j.State = JobCancelled
	default:
		j.State = JobFailed
		j.timedOut = errors.Is(err, context.DeadlineExceeded)
	}
	outcome := outcomeOf(j)
	runSecs := j.Finished.Sub(j.Started).Seconds()
	s.retire(j)
	s.mu.Unlock()

	s.met.finished.With(outcome).Inc()
	s.met.jobDur.Observe(runSecs)
	attrs := []any{"job", j.ID, "outcome", outcome,
		"run_ms", runSecs * 1e3, "design", j.d.Name}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.log.Warn("job finished", attrs...)
	} else {
		attrs = append(attrs, "routability", res.Routability,
			"wirelength", res.Wirelength, "routed_nets", res.RoutedNets)
		s.log.Info("job finished", attrs...)
	}
	close(j.done)
}

// flightRecordOf snapshots a terminal job into its post-mortem record.
// Callers hold s.mu.
func (s *Server) flightRecordOf(j *Job) FlightRecord {
	rec := FlightRecord{
		ID:        j.ID,
		State:     j.State,
		Outcome:   outcomeOf(j),
		Design:    j.d.Name,
		Nets:      len(j.d.Nets),
		OptionsFP: optionsFingerprint(j.opts),
		Workers:   j.opts.Workers,
		Cache:     j.cacheOutcome,
		Created:   j.Created,
		Finished:  j.Finished,
	}
	if j.Err != nil {
		rec.Error = j.Err.Error()
	}
	if !j.Started.IsZero() {
		rec.QueueMS = float64(j.Started.Sub(j.Created)) / float64(time.Millisecond)
		rec.RunMS = float64(j.Finished.Sub(j.Started)) / float64(time.Millisecond)
	}
	if r := j.Result; r != nil {
		rec.Routability = r.Routability
		rec.Wirelength = r.Wirelength
		rec.RoutedNets = r.RoutedNets
		rec.TotalNets = r.TotalNets
	}
	if j.coll != nil {
		rec.Obs = j.coll.Snapshot()
	}
	return rec
}

// Trace returns the job's JSONL trace captured so far (complete records
// only; the tracer is flushed when the job finishes).
func (j *Job) Trace() []byte {
	j.tracer.Flush()
	return j.trace.Snapshot()
}
