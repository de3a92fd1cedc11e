package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/retrieval"
)

// quantile is the nearest-rank q-quantile of xs, which it leaves in
// order. Failed requests enter as +Inf, so they count as misses.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// memWindow measures process-wide allocation and GC over a phase, and
// samples the heap for its peak.
type memWindow struct {
	before runtime.MemStats
	stop   chan struct{}
	done   sync.WaitGroup
	// Written by the sampler; read after done.Wait.
	peak  uint64    // highest sample of the window in progress
	peaks []float64 // highest sample of each finished window
}

// The heap is sampled every heapSampleEvery. The reported peak is the
// median over heapWindow-long windows of each window's highest sample:
// a single maximum over the phase depends on where one collection fell
// and moves from run to run.
const (
	heapSampleEvery = 20 * time.Millisecond
	heapWindow      = time.Second
)

func startMemWindow() *memWindow {
	runtime.GC()
	w := &memWindow{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.before)
	w.peak = w.before.HeapAlloc
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		// runtime/metrics reads without stopping the world, unlike
		// ReadMemStats, so sampling does not add to request latency.
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		windowEnd := time.Now().Add(heapWindow)
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				rtmetrics.Read(sample)
				w.peak = max(w.peak, sample[0].Value.Uint64())
				if !now.Before(windowEnd) {
					w.peaks = append(w.peaks, float64(w.peak))
					w.peak, windowEnd = 0, windowEnd.Add(heapWindow)
				}
			}
		}
	}()
	return w
}

// memFigures is a closed window's result.
type memFigures struct {
	mallocs, allocBytes, gcCycles uint64
	peakHeap                      float64 // bytes
	heapWindows                   int     // windows behind peakHeap
	pausesUS                      []float64
}

func (w *memWindow) end() memFigures {
	close(w.stop)
	w.done.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	f := memFigures{
		mallocs:     after.Mallocs - w.before.Mallocs,
		allocBytes:  after.TotalAlloc - w.before.TotalAlloc,
		gcCycles:    uint64(after.NumGC - w.before.NumGC),
		peakHeap:    median(w.peaks),
		heapWindows: len(w.peaks),
	}
	if len(w.peaks) == 0 { // a phase shorter than one window
		f.peakHeap, f.heapWindows = float64(max(w.peak, after.HeapAlloc)), 1
	}
	// PauseNs is a ring of the last 256 pauses, indexed by cycle.
	for c := w.before.NumGC + 1; c <= after.NumGC && after.NumGC-c < 256; c++ {
		f.pausesUS = append(f.pausesUS, float64(after.PauseNs[(c+255)%256])/1e3)
	}
	return f
}

// scrape sums the named counters over the Prometheus expositions of
// the given tiers.
func scrape(ctx context.Context, urls []string, names ...string) (map[string]float64, error) {
	out := make(map[string]float64, len(names))
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			for _, n := range names {
				if line == n || strings.HasPrefix(line, n+" ") || strings.HasPrefix(line, n+"{") {
					f := strings.Fields(line)
					v, err := strconv.ParseFloat(f[len(f)-1], 64)
					if err == nil {
						out[n] += v
					}
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("scrape %s: %w", u, err)
		}
	}
	return out, nil
}

// latencyWindows is how many consecutive windows a phase's latencies
// are split into; reported quantiles are the median over windows, so
// one window disturbed by a noisy neighbour moves them little.
const latencyWindows = 3

// windowedQuantile is the median over latencyWindows consecutive
// chunks of xs (in arrival order) of each chunk's q-quantile.
func windowedQuantile(xs []float64, q float64) float64 {
	n := len(xs) / latencyWindows
	if n == 0 {
		return quantile(xs, q)
	}
	per := make([]float64, latencyWindows)
	for i := range per {
		per[i] = quantile(xs[i*n:(i+1)*n], q)
	}
	return median(per)
}

// cacheStats is the result cache's traffic over a phase.
type cacheStats struct{ hits, shared, misses int64 }

func cacheDelta(a, b retrieval.CacheSnapshot) cacheStats {
	return cacheStats{hits: b.Hits - a.Hits, shared: b.Shared - a.Shared, misses: b.Misses - a.Misses}
}

func (c cacheStats) lookups() int64 { return c.hits + c.shared + c.misses }

func (c cacheStats) ratio() float64 {
	return safeDiv(float64(c.hits+c.shared), float64(c.lookups()))
}

type backendTotals struct{ hedges, failovers int64 }

func backendCounts(st *stack) backendTotals {
	var t backendTotals
	for _, b := range st.cluster.BackendSummaries() {
		t.hedges += b.Hedges
		t.failovers += b.Failovers
	}
	return t
}

func reroutes(st *stack) int64 {
	var n int64
	for _, r := range st.rt.Status() {
		n += r.Rerouted
	}
	return n
}

// scrapedCounters are read from every tier's Prometheus exposition.
var scrapedCounters = []string{"ivr_admission_shed_total", "ivr_deadline_exceeded_total"}

func (st *stack) metricsURLs() []string {
	urls := []string{st.routerURL + "/metrics", st.serveURL + "/metrics"}
	for _, u := range st.segURLs {
		urls = append(urls, u+"/metrics")
	}
	return urls
}
