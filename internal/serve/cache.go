package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/metrics"
	"rdlroute/internal/router"
)

// resultCache is the server's content-addressed result store: completed
// routing results keyed by the canonical codec encoding of (design,
// options), so a resubmission of byte-identical inputs is answered
// without touching a worker's router. Entries also index their design by
// its content hash, which is how delta jobs resolve the base design their
// rdl-design-delta/v1 document references.
//
// The cache is bounded two ways — entry count and retained bytes (the
// encoded size of each result) — and evicts least-recently-used first.
// Keys are exact content addresses: an option or design differing in any
// canonical byte is a different entry, so a hit can never return a result
// the same inputs would not reproduce.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64

	lru    *list.List               // of *cacheEntry, front = most recent
	byKey  map[string]*list.Element // (design,opts) content address
	byBase map[string]*list.Element // design hash → newest entry holding it
	bytes  int64

	hits, misses, evictions metrics.Counter // rdl_cache_*_total
}

type cacheEntry struct {
	key        string
	designHash string
	design     *design.Design
	result     *router.Result
	size       int64
}

// newResultCache sizes the cache and mounts its rdl_cache_* series on
// reg; entries<=0 disables caching (a nil cache). Gauges close over the
// cache so scrapes read live values, and a disabled cache still
// registers every family at zero so dashboards do not break on
// configuration differences.
func newResultCache(entries int, maxBytes int64, reg *metrics.Registry) *resultCache {
	hits := reg.Counter("rdl_cache_hits_total", "Result-cache hits.")
	misses := reg.Counter("rdl_cache_misses_total", "Result-cache misses.")
	evictions := reg.Counter("rdl_cache_evictions_total", "Result-cache LRU evictions.")
	var c *resultCache
	if entries > 0 {
		c = &resultCache{
			maxEntries: entries,
			maxBytes:   maxBytes,
			lru:        list.New(),
			byKey:      make(map[string]*list.Element),
			byBase:     make(map[string]*list.Element),
			hits:       hits,
			misses:     misses,
			evictions:  evictions,
		}
	}
	reg.GaugeFunc("rdl_cache_entries", "Result-cache entries resident.",
		func() float64 { n, _ := c.stats(); return float64(n) })
	reg.GaugeFunc("rdl_cache_bytes", "Result-cache retained bytes (encoded results).",
		func() float64 { _, b := c.stats(); return float64(b) })
	return c
}

// cacheKey computes the content address of one job: sha256 over the
// canonical design encoding concatenated with the canonical options
// encoding, Workers normalized to 0 — the determinism matrix guarantees
// results are byte-identical at every worker count, so worker count must
// not split the key space. Returns "" (uncacheable) if either encoding
// fails.
func cacheKey(d *design.Design, opts router.Options) string {
	var buf bytes.Buffer
	if err := codec.EncodeDesign(&buf, d); err != nil {
		return ""
	}
	opts.Workers = 0
	if err := codec.EncodeOptions(&buf, opts); err != nil {
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// get returns the cached result for the key and refreshes its recency.
func (c *resultCache) get(key string) (*router.Result, bool) {
	if c == nil || key == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).result, true
}

// base resolves a design by its content hash, for delta application.
// Counts as a recency touch but not as a hit/miss — the hit/miss series
// tracks result reuse.
func (c *resultCache) base(designHash string) (*design.Design, bool) {
	if c == nil || designHash == "" {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byBase[designHash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).design, true
}

// put inserts a completed run. The entry's size is the encoded result.
func (c *resultCache) put(key string, d *design.Design, res *router.Result) {
	if c == nil || key == "" || res == nil {
		return
	}
	designHash, err := codec.DesignHash(d)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := codec.EncodeResult(&buf, res); err != nil {
		return
	}
	size := int64(buf.Len())
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Same content address → same result bytes; refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	e := &cacheEntry{key: key, designHash: designHash, design: d, result: res, size: size}
	el := c.lru.PushFront(e)
	c.byKey[key] = el
	c.byBase[designHash] = el
	c.bytes += size
	for c.lru.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1) {
		c.evictOldest()
	}
}

// evictOldest drops the least-recently-used entry. Callers hold c.mu.
func (c *resultCache) evictOldest() {
	el := c.lru.Back()
	if el == nil {
		return
	}
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	if cur, ok := c.byBase[e.designHash]; ok && cur == el {
		delete(c.byBase, e.designHash)
	}
	c.bytes -= e.size
	c.evictions.Inc()
}

// stats snapshots the cache's resident entries and bytes for the gauges.
func (c *resultCache) stats() (entries int, bytes int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}
