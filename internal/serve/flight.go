package serve

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/obs"
	"rdlroute/internal/router"
)

// FlightRecord is the post-mortem record of one terminal job: what ran,
// how it ended, and the obs snapshot of what the flow actually did —
// enough to answer "why was job-417 slow". Records are built on request
// from the job table's retained terminal tail.
type FlightRecord struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	Outcome string   `json:"outcome"`
	Error   string   `json:"error,omitempty"`

	Design string `json:"design,omitempty"`
	Nets   int    `json:"nets,omitempty"`
	// OptionsFP fingerprints the job's canonical rdl-options/v1 encoding,
	// so "same design, different result" investigations can split by
	// configuration at a glance.
	OptionsFP string `json:"options_fingerprint,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	// Cache is the result-cache outcome of the run: "hit" (answered from
	// the content-addressed cache), "miss" (routed, then inserted), or
	// empty (caching disabled, or the job never reached a worker).
	Cache string `json:"cache,omitempty"`

	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
	QueueMS  float64   `json:"queue_ms"`
	RunMS    float64   `json:"run_ms"`

	Routability float64 `json:"routability,omitempty"`
	Wirelength  float64 `json:"wirelength,omitempty"`
	RoutedNets  int     `json:"routed_nets,omitempty"`
	TotalNets   int     `json:"total_nets,omitempty"`

	// Obs is this job's own aggregated snapshot (per-stage ms, A* effort,
	// counter totals) from its bounded per-job collector.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// flightRecords returns the retained terminal jobs' records newest-first
// plus the number of jobs that ever turned terminal.
func (s *Server) flightRecords() ([]FlightRecord, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]FlightRecord, 0, len(s.tail))
	for i := len(s.tail) - 1; i >= 0; i-- {
		recs = append(recs, s.flightRecordOf(s.tail[i]))
	}
	return recs, s.finished
}

// flightRecord returns the record of a retained terminal job; false for
// unknown, evicted and still-live jobs.
func (s *Server) flightRecord(id string) (FlightRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.Finished.IsZero() {
		return FlightRecord{}, false
	}
	return s.flightRecordOf(j), true
}

// optionsFingerprint hashes the job's canonical rdl-options/v1 bytes.
// The codec encoding is byte-stable, so equal fingerprints mean equal
// effective configurations.
func optionsFingerprint(opts router.Options) string {
	var buf bytes.Buffer
	if err := codec.EncodeOptions(&buf, opts); err != nil {
		return ""
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}
