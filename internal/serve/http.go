package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/eco"
	"rdlroute/internal/metrics"
	"rdlroute/internal/router"
)

// JobSchema is the schema identifier of job submissions.
const JobSchema = "rdl-job/v1"

// maxJobBody caps a POST /v1/jobs body so one request cannot make the
// server buffer without bound. dense5, the largest Table-I circuit,
// encodes to about 246 KB of rdl-design/v1; 32 MiB leaves ample room for
// larger inline designs.
const maxJobBody = 32 << 20

// jobRequest is the POST /v1/jobs body. Exactly one of Benchmark, Design
// or Delta selects the circuit; Design, Delta and Options are nested
// codec documents carrying their own schema fields. A Delta request
// routes the edited design produced by applying the delta to the base
// design its "base" hash names — the base must be resident in the
// server's result cache (route it first). The edited design then routes
// cold like any other job.
type jobRequest struct {
	Schema    string          `json:"schema"`
	Benchmark string          `json:"benchmark,omitempty"` // "dense1".."dense5"
	Design    json.RawMessage `json:"design,omitempty"`    // rdl-design/v1 document
	Delta     json.RawMessage `json:"delta,omitempty"`     // rdl-design-delta/v1 document
	Options   json.RawMessage `json:"options,omitempty"`   // rdl-options/v1 document
	TimeoutMS int             `json:"timeout_ms,omitempty"`
}

// jobView is the wire view of a job (POST and GET responses).
type jobView struct {
	ID        string          `json:"id"`
	State     JobState        `json:"state"`
	Error     string          `json:"error,omitempty"`
	RuntimeMS float64         `json:"runtime_ms,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"` // rdl-result/v1 document when done
}

// errorView is the wire shape of every non-2xx response body.
type errorView struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"` // codec errors: syntax | schema | validate
	Path  string `json:"path,omitempty"` // codec errors: JSON path of the offense
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	ev := errorView{Error: err.Error()}
	var ce *codec.Error
	if errors.As(err, &ce) {
		ev.Kind = ce.Kind.String()
		ev.Path = ce.Path
	}
	writeJSON(w, status, ev)
}

// Handler returns the HTTP API of the server. Every route is
// instrumented (request counter + latency histogram per route) and
// request-logged with job-ID correlation where one applies.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/jobs", s.handleSubmit)
	route("GET /v1/jobs/{id}", s.handleGet)
	route("POST /v1/jobs/{id}/cancel", s.handleCancel)
	route("GET /v1/jobs/{id}/trace", s.handleTrace)
	route("GET /v1/debug/jobs", s.handleFlightList)
	route("GET /v1/debug/jobs/{id}", s.handleFlightGet)
	route("GET /healthz", s.handleHealth)
	route("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route request counter, latency
// histogram, and a structured request log line. The route label is the
// mux pattern, not the raw path, so the series stay low-cardinality.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(sw, r)
		dt := time.Since(t0)
		s.met.httpReqs.With(pattern, strconv.Itoa(sw.code)).Inc()
		s.met.httpDur.With(pattern).Observe(dt.Seconds())
		attrs := []any{"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration_ms", float64(dt) / float64(time.Millisecond)}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, "job", id)
		}
		s.log.Info("http request", attrs...)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("job body: %w", err))
		return
	}
	if req.Schema != JobSchema {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("job schema %q (want %q)", req.Schema, JobSchema))
		return
	}

	var d *design.Design
	selected := 0
	for _, set := range []bool{req.Benchmark != "", req.Design != nil, req.Delta != nil} {
		if set {
			selected++
		}
	}
	switch {
	case selected > 1:
		writeError(w, http.StatusBadRequest,
			errors.New("set exactly one of benchmark, design and delta"))
		return
	case req.Delta != nil:
		dl, err := codec.DecodeDesignDelta(bytes.NewReader(req.Delta))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if dl.Base == "" {
			writeError(w, http.StatusBadRequest,
				errors.New(`delta has no base hash (set "base" to the design's content hash)`))
			return
		}
		base, ok := s.cache.base(dl.Base)
		if !ok {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("base design %s not in the result cache (route it first, then resubmit the delta)", dl.Base))
			return
		}
		if d, err = eco.Apply(base, dl); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("delta does not apply: %w", err))
			return
		}
	case req.Benchmark != "":
		spec, err := design.DenseSpec(req.Benchmark)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if d, err = design.Generate(spec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	case req.Design != nil:
		var err error
		if d, err = codec.DecodeDesign(bytes.NewReader(req.Design)); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeError(w, http.StatusBadRequest,
			errors.New("set one of benchmark, design and delta"))
		return
	}

	opts := router.DefaultOptions()
	if req.Options != nil {
		var err error
		if opts, err = codec.DecodeOptions(bytes.NewReader(req.Options)); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	j, err := s.Submit(d, opts, timeout, r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.viewOf(j))
}

// viewOf snapshots a job into its wire view.
func (s *Server) viewOf(j *Job) jobView {
	s.mu.Lock()
	v := jobView{ID: j.ID, State: j.State}
	if j.Err != nil {
		v.Error = j.Err.Error()
	}
	res := j.Result
	if !j.Finished.IsZero() && !j.Started.IsZero() {
		v.RuntimeMS = float64(j.Finished.Sub(j.Started)) / float64(time.Millisecond)
	}
	s.mu.Unlock()
	if res != nil {
		var buf bytes.Buffer
		if err := codec.EncodeResult(&buf, res); err == nil {
			v.Result = buf.Bytes()
		}
	}
	return v
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if !s.Cancel(j) {
		writeError(w, http.StatusConflict, errors.New("job already finished"))
		return
	}
	writeJSON(w, http.StatusOK, s.viewOf(j))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(j.Trace())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running, draining := s.running, s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":  status,
		"workers": s.cfg.Workers,
		"queue":   s.cfg.QueueDepth,
		"queued":  len(s.queue),
		"running": running,
	})
}

// handleMetrics serves the production metrics in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	w.WriteHeader(http.StatusOK)
	s.cfg.Registry.WriteText(w)
}

// flightListView is the GET /v1/debug/jobs body.
type flightListView struct {
	Total    int64          `json:"total_recorded"`
	Capacity int            `json:"capacity"`
	Jobs     []FlightRecord `json:"jobs"`
}

func (s *Server) handleFlightList(w http.ResponseWriter, r *http.Request) {
	recs, total := s.flightRecords()
	writeJSON(w, http.StatusOK, flightListView{
		Total:    total,
		Capacity: s.cfg.FlightSize,
		Jobs:     recs,
	})
}

func (s *Server) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.flightRecord(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no flight record (job unknown, still in flight, or evicted)"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}
