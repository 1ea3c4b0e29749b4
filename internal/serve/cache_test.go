package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/eco"
	"rdlroute/internal/layout"
	"rdlroute/internal/metrics"
	"rdlroute/internal/router"
)

// variant returns dense1 with the first n nets removed — distinct designs
// (and content hashes) for cache-population tests without routing cost.
func variant(t *testing.T, d *design.Design, n int) *design.Design {
	t.Helper()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	v, err := eco.Apply(d, &eco.Delta{RemoveNets: idx})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func stubResult(d *design.Design) *router.Result {
	return &router.Result{Layout: layout.New(d), TotalNets: len(d.Nets),
		RoutedNets: len(d.Nets), Routability: 100}
}

// TestCacheLRUEviction: the entry bound evicts least-recently-used first,
// a get refreshes recency, and the byBase index follows evictions.
func TestCacheLRUEviction(t *testing.T) {
	d := dense1(t)
	reg := metrics.NewRegistry()
	c := newResultCache(2, 0, reg)
	opts := router.DefaultOptions()

	designs := []*design.Design{d, variant(t, d, 1), variant(t, d, 2)}
	keys := make([]string, len(designs))
	hashes := make([]string, len(designs))
	for i, dv := range designs {
		keys[i] = cacheKey(dv, opts)
		h, err := codec.DesignHash(dv)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	if keys[0] == keys[1] || hashes[0] == hashes[1] {
		t.Fatal("variant designs share a content address")
	}

	c.put(keys[0], designs[0], stubResult(designs[0]))
	c.put(keys[1], designs[1], stubResult(designs[1]))
	if _, ok := c.get(keys[0]); !ok { // refresh 0 → 1 is now LRU
		t.Fatal("entry 0 missing before capacity reached")
	}
	c.put(keys[2], designs[2], stubResult(designs[2]))

	if _, ok := c.get(keys[1]); ok {
		t.Error("entry 1 should have been evicted (LRU after entry 0 was touched)")
	}
	if _, ok := c.get(keys[0]); !ok {
		t.Error("entry 0 evicted despite recency refresh")
	}
	if _, ok := c.base(hashes[1]); ok {
		t.Error("byBase still resolves the evicted design")
	}
	if base, ok := c.base(hashes[2]); !ok || len(base.Nets) != len(designs[2].Nets) {
		t.Errorf("byBase lookup of resident design failed (ok=%v)", ok)
	}
	entries, bytes_ := c.stats()
	fams := scrape(t, reg)
	evicted := counterValue(t, fams, "rdl_cache_evictions_total", nil)
	if entries != 2 || bytes_ <= 0 || evicted != 1 {
		t.Errorf("stats = entries %d bytes %d evicted %v, want 2/>0/1", entries, bytes_, evicted)
	}
	hits := counterValue(t, fams, "rdl_cache_hits_total", nil)
	misses := counterValue(t, fams, "rdl_cache_misses_total", nil)
	if hits != 2 || misses != 1 {
		t.Errorf("hits/misses = %v/%v, want 2/1", hits, misses)
	}
}

// TestCacheByteBound: the byte bound evicts down to at least one entry,
// never zero — a single oversized result stays usable.
func TestCacheByteBound(t *testing.T) {
	d := dense1(t)
	reg := metrics.NewRegistry()
	c := newResultCache(100, 1, reg) // absurdly small byte budget
	opts := router.DefaultOptions()
	c.put(cacheKey(d, opts), d, stubResult(d))
	v := variant(t, d, 1)
	c.put(cacheKey(v, opts), v, stubResult(v))
	entries, _ := c.stats()
	evicted := counterValue(t, scrape(t, reg), "rdl_cache_evictions_total", nil)
	if entries != 1 || evicted != 1 {
		t.Errorf("entries %d evicted %v, want 1/1 (byte bound keeps one entry)", entries, evicted)
	}
}

// TestCacheKeyNormalizesWorkers: worker count and tracer wiring must not
// split the key space — results are byte-identical at every worker count.
func TestCacheKeyNormalizesWorkers(t *testing.T) {
	d := dense1(t)
	o1 := router.DefaultOptions()
	o2 := router.DefaultOptions()
	o1.Workers = 1
	o2.Workers = 8
	if cacheKey(d, o1) != cacheKey(d, o2) {
		t.Error("cache key differs across worker counts")
	}
	o2.ViaCost++
	if cacheKey(d, o1) == cacheKey(d, o2) {
		t.Error("cache key ignores a routing-relevant option")
	}
}

// TestCacheHitMintsJobAndFlight is the regression test for the
// idempotency interaction: a resubmission of identical content under a
// NEW idempotency key is a cache hit, but it must still mint a fresh job
// record and flight entry (tagged "hit"). Only an identical idempotency
// key dedups to the same job.
func TestCacheHitMintsJobAndFlight(t *testing.T) {
	var calls atomic.Int64
	counted := func(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error) {
		calls.Add(1)
		return stubResult(d), nil
	}
	s := New(Config{Workers: 1, QueueDepth: 4, Route: counted})
	d := dense1(t)
	opts := router.DefaultOptions()

	j1, err := s.Submit(d, opts, 0, "key-a")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j1)
	j2, err := s.Submit(d, opts, 0, "key-b")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j2)

	if j1.ID == j2.ID {
		t.Fatalf("new idempotency key deduped to the same job %s", j1.ID)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("route called %d times, want 1 (second job served from cache)", got)
	}
	if j2.Result == nil || j2.Result.TotalNets != len(d.Nets) {
		t.Errorf("cache-hit job has no result: %+v", j2.Result)
	}
	r1, ok1 := s.flightRecord(j1.ID)
	r2, ok2 := s.flightRecord(j2.ID)
	if !ok1 || !ok2 {
		t.Fatalf("flight records missing (j1 %v, j2 %v)", ok1, ok2)
	}
	if r1.Cache != "miss" || r2.Cache != "hit" {
		t.Errorf("flight cache tags = %q/%q, want miss/hit", r1.Cache, r2.Cache)
	}

	// Same idempotency key still returns the existing job, no new record.
	j3, err := s.Submit(d, opts, 0, "key-a")
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != j1.ID {
		t.Errorf("idempotent replay minted new job %s, want %s", j3.ID, j1.ID)
	}
	shutdown(t, s)
}

// TestHTTPDeltaJob routes dense1 for real, then submits an
// rdl-design-delta/v1 job against its content hash. The delta job must
// produce bytes identical to a local eco.Apply plus router.RouteContext
// of the edited design; an unknown base hash is a 400.
func TestHTTPDeltaJob(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, QueueDepth: 4, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	d := dense1(t)

	post := func(body string) (*http.Response, jobView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jv jobView
		if resp.StatusCode == http.StatusAccepted {
			decodeBody(t, resp, &jv)
		}
		return resp, jv
	}

	// Base route (cold, recorded into the cache).
	var db bytes.Buffer
	if err := codec.EncodeDesign(&db, d); err != nil {
		t.Fatal(err)
	}
	resp, jv := post(fmt.Sprintf(`{"schema":%q,"design":%s}`, JobSchema, db.String()))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("base submit status %d", resp.StatusCode)
	}
	base := waitState(t, ts.URL, jv.ID, JobDone, 120*time.Second)
	if base.State != JobDone {
		t.Fatalf("base job state %s (%s)", base.State, base.Error)
	}

	hash, err := codec.DesignHash(d)
	if err != nil {
		t.Fatal(err)
	}
	dl := &eco.Delta{Base: hash, Name: d.Name, RemoveNets: []int{0}}
	var dlb bytes.Buffer
	if err := codec.EncodeDesignDelta(&dlb, dl); err != nil {
		t.Fatal(err)
	}

	// Unknown base → 400 with a pointed message.
	bad := strings.Replace(dlb.String(), hash, strings.Repeat("0", 64), 1)
	resp, _ = post(fmt.Sprintf(`{"schema":%q,"delta":%s}`, JobSchema, bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-base status %d, want 400", resp.StatusCode)
	}
	var ev errorView
	decodeBody(t, resp, &ev)
	if !strings.Contains(ev.Error, "not in the result cache") {
		t.Errorf("unknown-base error %q", ev.Error)
	}

	// Real delta job.
	resp, jv = post(fmt.Sprintf(`{"schema":%q,"delta":%s}`, JobSchema, dlb.String()))
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("delta submit status %d: %s", resp.StatusCode, body)
	}
	got := waitState(t, ts.URL, jv.ID, JobDone, 120*time.Second)
	if got.State != JobDone {
		t.Fatalf("delta job state %s (%s)", got.State, got.Error)
	}

	// Byte-identity: the delta job's result equals a cold route of the
	// edited design.
	edited, err := eco.Apply(d, dl)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := router.RouteContext(context.Background(), edited, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The job view re-indents the embedded result document and the
	// encoding carries wall-clock runtime, so canonicalize through a
	// decode/encode round trip with runtime zeroed before comparing.
	gotRes, err := codec.DecodeResult(bytes.NewReader(got.Result), edited)
	if err != nil {
		t.Fatalf("delta-job result does not decode: %v", err)
	}
	gotRes.Runtime = 0
	cold.Runtime = 0
	var gotBytes, want bytes.Buffer
	if err := codec.EncodeResult(&gotBytes, gotRes); err != nil {
		t.Fatal(err)
	}
	if err := codec.EncodeResult(&want, cold); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), want.Bytes()) {
		t.Errorf("delta-job result bytes differ from cold route of the edited design\ngot:  routed=%d wl=%v routability=%v\nwant: routed=%d wl=%v routability=%v",
			gotRes.RoutedNets, gotRes.Wirelength, gotRes.Routability,
			cold.RoutedNets, cold.Wirelength, cold.Routability)
	}

	// The cache families are on the registry in Prometheus text form.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	text := string(mb)
	for _, fam := range []string{"rdl_cache_entries", "rdl_cache_bytes",
		"rdl_cache_hits_total", "rdl_cache_misses_total", "rdl_cache_evictions_total"} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	shutdown(t, s)
}

// TestCacheDisabled: CacheEntries < 0 turns the cache off — every job
// routes, flight records carry no cache tag, and the metric families
// still expose zeros.
func TestCacheDisabled(t *testing.T) {
	var calls atomic.Int64
	counted := func(ctx context.Context, d *design.Design, opts router.Options) (*router.Result, error) {
		calls.Add(1)
		return stubResult(d), nil
	}
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Route: counted, CacheEntries: -1, Registry: reg})
	d := dense1(t)
	for i := 0; i < 2; i++ {
		j, err := s.Submit(d, router.DefaultOptions(), 0, "")
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, s, j)
		if rec, ok := s.flightRecord(j.ID); !ok || rec.Cache != "" {
			t.Errorf("disabled cache tagged flight record %q", rec.Cache)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("route called %d times, want 2 with cache disabled", calls.Load())
	}
	var buf bytes.Buffer
	reg.WriteText(&buf)
	if !strings.Contains(buf.String(), "rdl_cache_entries 0") {
		t.Error("disabled cache does not expose zeroed gauge families")
	}
	shutdown(t, s)
}
