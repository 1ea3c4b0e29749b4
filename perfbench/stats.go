package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// percentile returns the p-quantile of xs, interpolating linearly between
// the closest ranks, or 0 when xs is empty. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// setupMinTime is how long the set-up repetitions of a run take at least.
// A dense workload's set-up takes a few milliseconds, and the median of a
// handful of them read from 1.3 to 2.4 ms from run to run; repeating for
// half a second steadies it.
const setupMinTime = 500 * time.Millisecond

// timeSetup runs setup at least n times and for at least setupMinTime, and
// returns the median wall time in seconds. Each repetition starts after a
// full garbage collection, so that none pays for the garbage of the one
// before. The run goes on with the state the last repetition built.
func timeSetup(n int, setup func() error) (float64, error) {
	var ts []float64
	start := time.Now()
	for len(ts) < n || time.Since(start) < setupMinTime {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	m := median(ts)
	fmt.Printf("setup: %d repetitions, median %.6f s, range %.6f to %.6f s\n", len(ts), m, ts[0], ts[len(ts)-1])
	return m, nil
}

// heapPeak samples the Go heap in use — live objects and dead ones not
// yet swept — every couple of milliseconds and keeps the peak.
type heapPeak struct {
	stopc, done chan struct{}
	peak        uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	<-h.done
	return h.peak
}

// gcCounters reads the bytes allocated and the GC cycles completed so far.
func gcCounters() (allocBytes, cycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
