package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rdlroute/internal/codec"
	"rdlroute/internal/design"
	"rdlroute/internal/eco"
	"rdlroute/internal/layout"
	"rdlroute/internal/qa"
)

// The serve-mix stream. The fresh designs are the same on every seed,
// qa.Generate of seeds 1 to mixPool, so that runs on different seeds do the
// same work: with designs drawn anew for each seed, the median job latency
// differed by 15% between seeds. The seed deals the designs out to the
// clients in a random order and draws the jobs between them: about a
// quarter byte-identical resubmits of one of the client's recent designs
// (cache hits), and a small share of rdl-design-delta/v1 jobs that remove
// one net from one of them.
const (
	hitShare   = 0.25
	deltaShare = 0.05
	// mixPool is the number of distinct fresh designs, which the clients
	// cycle through. It far exceeds the server's 32-entry result cache, so
	// a fresh design misses the cache every time it comes round.
	mixPool = 192
	// mixRecent bounds how far back resubmits and delta bases reach: the
	// client's last few fresh designs, which are still cached.
	mixRecent = 4
	// mixProbe is how many designs, the first dealt, the traced run routes
	// directly.
	mixProbe = 32
)

// mixJob is one scripted submission.
type mixJob struct {
	kind string // "fresh", "hit" or "delta"
	key  string // the design routed: every result for one key must be equal
	pool int    // pool index of a fresh job's design, or -1
	body []byte // POST /v1/jobs body
	d    *design.Design
}

// mixClient is one closed-loop client: it submits its next job only after
// the previous one is done, and checks every result.
type mixClient struct {
	script []mixJob

	attempted, drcViolations int
	failures                 []string
	latency, freshRun        []time.Duration
	serve                    serveStats
	digests                  map[string][32]byte
	served                   map[int]*layout.Layout // first result for each pool design
}

// newMixClients scripts the streams of n clients for the workload seed. It
// also returns the pool designs by pool index, and the pool indices in the
// order they were dealt.
func newMixClients(seed int64, n int) ([]*mixClient, []*design.Design, []int, error) {
	rng := rand.New(rand.NewSource(seed))
	clients := make([]*mixClient, n)
	for c := range clients {
		clients[c] = &mixClient{digests: map[string][32]byte{}, served: map[int]*layout.Layout{}}
	}
	fresh := make([][]mixJob, n)
	pool := make([]*design.Design, mixPool)
	order := rng.Perm(mixPool)
	for k, p := range order {
		c := k % n
		mc := clients[c]
		for {
			recent := fresh[c][max(0, len(fresh[c])-mixRecent):]
			u := rng.Float64()
			if len(recent) == 0 || u >= hitShare+deltaShare {
				break
			}
			base := recent[rng.Intn(len(recent))]
			if u < hitShare || len(base.d.Nets) < 2 {
				base.kind, base.pool = "hit", -1
				mc.script = append(mc.script, base)
				continue
			}
			job, err := deltaJob(base, rng)
			if err != nil {
				return nil, nil, nil, err
			}
			mc.script = append(mc.script, job)
		}
		d := qa.Generate(int64(p) + 1)
		doc, err := encodeDesign(d)
		if err != nil {
			return nil, nil, nil, err
		}
		body, err := jobBody("design", doc)
		if err != nil {
			return nil, nil, nil, err
		}
		job := mixJob{kind: "fresh", key: d.Name, pool: p, body: body, d: d}
		fresh[c] = append(fresh[c], job)
		mc.script = append(mc.script, job)
		pool[p] = d
	}
	return clients, pool, order, nil
}

// deltaJob scripts an rdl-design-delta/v1 job removing one random net from
// a fresh job's design. The edited design, applied locally, is what the
// job's result decodes against.
func deltaJob(base mixJob, rng *rand.Rand) (mixJob, error) {
	hash, err := codec.DesignHash(base.d)
	if err != nil {
		return mixJob{}, err
	}
	net := rng.Intn(len(base.d.Nets))
	dl := &eco.Delta{Base: hash, RemoveNets: []int{net}}
	d, err := eco.Apply(base.d, dl)
	if err != nil {
		return mixJob{}, fmt.Errorf("delta on %s: %w", base.key, err)
	}
	var buf bytes.Buffer
	if err := codec.EncodeDesignDelta(&buf, dl); err != nil {
		return mixJob{}, err
	}
	body, err := jobBody("delta", buf.Bytes())
	if err != nil {
		return mixJob{}, err
	}
	return mixJob{kind: "delta", key: fmt.Sprintf("%s-net%d", base.key, net), pool: -1, body: body, d: d}, nil
}

// loop runs the script, cycling, until the deadline, and at least once
// through, so that every pool design the client was dealt completes in the
// run however slow the jobs are.
func (mc *mixClient) loop(sv *server, deadline time.Time) {
	for i := 0; i < len(mc.script) || time.Now().Before(deadline); i++ {
		job := mc.script[i%len(mc.script)]
		mc.attempted++
		jr, err := sv.submit(job.body)
		if err != nil {
			mc.failures = append(mc.failures, fmt.Sprintf("%s job %s: %v", job.kind, job.key, err))
			continue
		}
		mc.serve.add(jr)
		res, nv, problems := checkJob(jr, job.d)
		mc.drcViolations += nv
		if res != nil {
			mc.latency = append(mc.latency, jr.latency)
			if job.kind == "fresh" {
				mc.freshRun = append(mc.freshRun, jr.runTime)
			}
			if job.pool >= 0 && mc.served[job.pool] == nil {
				mc.served[job.pool] = res.Layout
			}
			dg, err := resultDigest(res)
			prev, seen := mc.digests[job.key]
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("encode result: %v", err))
			case !seen:
				mc.digests[job.key] = dg
			case dg != prev:
				problems = append(problems, "result differs from the first result for this design")
			}
		}
		if len(problems) > 0 {
			mc.failures = append(mc.failures, fmt.Sprintf("%s job %s: %s", job.kind, job.key, strings.Join(problems, "; ")))
		}
	}
}

// warmUp routes a few designs from outside the pool, so that connections,
// code paths and the heap are warm before timing starts.
func warmUp(sv *server) error {
	for i := int64(1); i <= 4; i++ {
		d := qa.Generate(mixPool + i)
		doc, err := encodeDesign(d)
		if err != nil {
			return err
		}
		body, err := jobBody("design", doc)
		if err != nil {
			return err
		}
		jr, err := sv.submit(body)
		if err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		if _, _, problems := checkJob(jr, d); len(problems) > 0 {
			return fmt.Errorf("warm-up job %s: %s", d.Name, strings.Join(problems, "; "))
		}
	}
	return nil
}

// runServeMix runs the serve-mix workload: a closed loop of one client per
// core against an in-process serve.Server on loopback.
func runServeMix(b *bench) error {
	var clients []*mixClient
	var pool []*design.Design
	var order []int
	var sv *server
	setupS, err := timeSetup(5, func() error {
		if sv != nil {
			if err := sv.close(); err != nil {
				return err
			}
			sv = nil
		}
		var err error
		if clients, pool, order, err = newMixClients(b.seed, runtime.NumCPU()); err != nil {
			return err
		}
		if sv, err = startServer(); err != nil {
			return err
		}
		return warmUp(sv)
	})
	if sv != nil {
		defer func() {
			if cerr := sv.close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "perfbench: close server: %v\n", cerr)
			}
		}()
	}
	if err != nil {
		return err
	}

	h0, m0, err := sv.cacheCounts()
	if err != nil {
		return err
	}
	heap := startHeapPeak()
	start := time.Now()
	deadline := start.Add(b.duration)
	var wg sync.WaitGroup
	for _, mc := range clients {
		wg.Add(1)
		go func(mc *mixClient) {
			defer wg.Done()
			mc.loop(sv, deadline)
		}(mc)
	}
	wg.Wait()
	wall := time.Since(start)
	peak := heap.stop()
	h1, m1, err := sv.cacheCounts()
	if err != nil {
		return err
	}

	var st serveStats
	var latency, freshRun []time.Duration
	served := make([]*layout.Layout, mixPool)
	for _, mc := range clients {
		b.attempted += mc.attempted
		b.drcViolations += mc.drcViolations
		for _, f := range mc.failures {
			b.fail("%s", f)
		}
		latency = append(latency, mc.latency...)
		freshRun = append(freshRun, mc.freshRun...)
		st.queueWait = append(st.queueWait, mc.serve.queueWait...)
		st.runTime = append(st.runTime, mc.serve.runTime...)
		st.rejected += mc.serve.rejected
		for p, lay := range mc.served {
			served[p] = lay
		}
	}
	st.hits, st.misses = h1-h0, m1-m0
	fmt.Printf("serve-mix: %d clients, %d jobs attempted, %d completed, cache hits %.0f, misses %.0f\n",
		len(clients), b.attempted, len(latency), st.hits, st.misses)

	routed := 0
	wl, lb := 0.0, 0.0
	for p, lay := range served {
		if lay == nil {
			b.fail("%s: pool design never completed", pool[p].Name)
			continue
		}
		q := lay.QualityStats()
		routed += lay.RoutedCount()
		wl += q.Actual
		lb += q.LowerBound
	}
	if b.traced {
		probe := make([]*design.Design, mixProbe)
		probeServed := make([]*layout.Layout, mixProbe)
		for k, p := range order[:mixProbe] {
			probe[k], probeServed[k] = pool[p], served[p]
		}
		return tracedServeMix(b, probe, probeServed, st)
	}
	b.reportEndToEnd(endToEnd{
		routeS:     median(secs(freshRun)),
		routedNets: routed,
		wirelength: wl,
		lowerBound: lb,
		jobs:       latency,
		jobWall:    wall,
		setupS:     setupS,
		peakHeap:   peak,
	})
	return nil
}

// tracedServeMix finishes the traced run of serve-mix. The server attaches
// its own collector to the routes it runs, so the serve layer is measured
// from the HTTP calls and the Job timestamps, and the router layers from
// routing the first designs dealt directly; those routes must reproduce
// what the service returned.
func tracedServeMix(b *bench, refs []*design.Design, served []*layout.Layout, st serveStats) error {
	rs, err := newRouteSet(b, refs)
	if err != nil {
		return err
	}
	tr := newMemTracer()
	plain, traced := rs.tracedPass(tr, 2, 0)
	for i, ref := range rs.ref {
		if lay := served[i]; ref != nil && lay != nil && (lay.RoutedCount() != ref.routed || lay.Wirelength() != ref.wl) {
			b.fail("%s: served routed/wirelength %d/%.4f, direct route %d/%.4f",
				refs[i].Name, lay.RoutedCount(), lay.Wirelength(), ref.routed, ref.wl)
		}
	}
	b.reportRouteLayers(rs, tr, plain, traced)
	b.reportServeLayers(st)
	b.set("drc.violations", "count", float64(b.drcViolations))
	return b.writeTrace(tr)
}
