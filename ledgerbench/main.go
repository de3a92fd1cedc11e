// Command ledgerbench is the repository's end-to-end benchmark. It
// boots the three-tier stack in one process on loopback — router →
// webapi (core with the retrieval result cache) → a distrib cluster of
// two segment servers, one segment each — drives it through the client
// SDK with sessions generated from --seed, checks sampled pages
// against an in-process oracle, and prints every metric by name with
// its unit. With --trace 1 it prints the per-layer ledger instead.
// See README.md for the workloads and the metric map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash ledgerbench/run.sh --workload adapt-deep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The exit status is non-zero on any failed operation, oracle
// mismatch or tripped workload guard.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/search"
	"repro/internal/synth"
)

// Workload names.
const (
	wlAdapt  = "adapt-deep"
	wlBrowse = "browse-hot"
)

// archiveSeed is ivrserve's default generation seed: the archive is
// the program's data set and stays fixed; --seed varies the sessions.
const archiveSeed = 2008

// Phase sizing.
const (
	numClients = 2 // SDK connections; the benchmark host has 2 CPUs
	warmup     = 500 * time.Millisecond
	setups     = 9 // set-ups timed per untraced run; setup_s is their median
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string

	// Set by the smoke test only: the tiny archive and fewer set-ups.
	tiny   bool
	setups int
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "adapt-deep, browse-hot, or all of them in turn")
	fs.Int64Var(&c.seed, "seed", 1, "session generation seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger of a traced run")
	fs.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "ledgerbench"), "scratch directory for journals and span logs")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch c.workload {
	case wlAdapt, wlBrowse, "all":
	default:
		return c, fmt.Errorf("unknown --workload %q", c.workload)
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	if c.seconds <= 0 {
		return c, fmt.Errorf("--seconds must be positive")
	}
	c.setups = setups
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(2)
	}
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = []string{wlAdapt, wlBrowse}
	}
	status := 0
	for _, wl := range workloads {
		cfg.workload = wl
		res, err := run(context.Background(), cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledgerbench: %s: %v\n", wl, err)
			os.Exit(1)
		}
		if !res.Correct || res.Failed > 0 {
			status = 1
		}
	}
	os.Exit(status)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind it, printed in the table
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// guard records one workload validity check.
func (r *result) guard(w io.Writer, name string, ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "TRIPPED"
		r.Correct = false
	}
	line := fmt.Sprintf("guard %-28s %-8s %s\n", name, status, fmt.Sprintf(format, args...))
	fmt.Fprint(w, line)
	if !ok {
		fmt.Fprint(os.Stderr, "ledgerbench: ", line) // why the run failed, where its errors go
	}
}

func (r *result) addOps(rec *recorder) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
}

func run(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	acfg := synth.DefaultConfig()
	if cfg.tiny {
		acfg = synth.TinyConfig()
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var led *ledger
	if cfg.trace {
		led = newLedger()
	}
	// Set-up is repeated and its median reported; the last boot serves
	// the run. A traced run reports no set-up time and boots once.
	boots := cfg.setups
	if cfg.trace {
		boots = 1
	}
	var setupS []float64
	var st *stack
	for i := 0; i < boots; i++ {
		opts := stackOptions{}
		if cfg.workload != wlBrowse {
			opts.journalPath = journalFile(dir, i)
		}
		if i == boots-1 {
			opts.led = led
		}
		runtime.GC() // the previous boot's garbage is not this set-up's cost
		start := time.Now()
		s, err := setupStack(ctx, acfg, opts)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i < boots-1 {
			s.Close()
		} else {
			st = s
		}
	}
	stackOpen := true
	closeStack := func() {
		if stackOpen {
			st.Close()
			stackOpen = false
		}
	}
	defer closeStack()

	e := &env{planner: newPlanner(cfg.workload, cfg.seed, st.arch), log: newSessionLog()}
	for i := 0; i < numClients; i++ {
		c, err := newSDK(st.routerURL, led)
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	b := &bench{cfg: cfg, st: st, env: e, led: led, res: res, w: w}
	if cfg.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx, setupS)
	}
	if err != nil {
		return nil, err
	}

	// Output check: every sampled session, page by page, against the
	// in-process oracle.
	pages, bad, first, err := checkOracle(st.arch, e.log.histories)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(pages)
	res.Failed += int64(bad)
	res.guard(w, "oracle.parity", bad == 0 && pages > 0, "%d of %d sampled pages bit-identical to the oracle %s", pages-bad, pages, first)

	if cfg.trace {
		closeStack()
		layers, err := replayLedger(ctx, st.arch, cfg.seed, dir)
		if err != nil {
			return nil, err
		}
		for _, l := range layers {
			res.set("replay."+l.name+"_ns", l.ns, "ns", 1)
			res.set("replay."+l.name+"_allocs", l.allocs, "count", 1)
		}
	}
	printResult(w, cfg, res)
	return res, nil
}

// bench holds one run's moving parts.
type bench struct {
	cfg config
	st  *stack
	env *env
	led *ledger
	res *result
	w   io.Writer
}

// untraced is the end-to-end run: set-up, warm-up, the measured phase.
func (b *bench) untraced(ctx context.Context, setupS []float64) error {
	res, st := b.res, b.st
	res.set("setup_s", median(setupS), "s", len(setupS))
	if err := b.warm(ctx); err != nil {
		return err
	}
	mem := startMemWindow()
	cache0 := st.sys.Cache().Stats()
	rec := &recorder{}
	var next atomic.Int64
	b.env.runClosed(ctx, rec, &next, 1, time.Now().Add(secs(b.cfg.seconds)))
	res.addOps(rec)
	rec.logErrors(b.cfg.workload)
	mf := mem.end()
	cache := cacheDelta(cache0, st.sys.Cache().Stats())
	searches := rec.searches
	if searches == 0 {
		return errors.New("no search completed")
	}
	res.set("search_p50_ms", windowedQuantile(rec.searchMS, 0.50), "ms", len(rec.searchMS))
	res.set("search_p99_ms", windowedQuantile(rec.searchMS, 0.99), "ms", len(rec.searchMS))
	res.set("feedback_p50_ms", windowedQuantile(rec.eventsMS, 0.50), "ms", len(rec.eventsMS))
	res.set("feedback_p99_ms", windowedQuantile(rec.eventsMS, 0.99), "ms", len(rec.eventsMS))
	res.set("searches_per_s", float64(searches)/rec.elapsed().Seconds(), "1/s", int(searches))
	res.set("allocs_per_search", float64(mf.mallocs)/float64(searches), "count", int(searches))
	res.set("alloc_kb_per_search", float64(mf.allocBytes)/1024/float64(searches), "KiB", int(searches))
	res.set("peak_heap_mb", mf.peakHeap/(1<<20), "MiB", mf.heapWindows)
	m, n := adaptedMAP(st.arch, b.env.log)
	res.set("adapted_map", m, "ratio", n)
	b.guards(cache)
	return nil
}

// traced is the per-layer run: after the same warm-up as the untraced
// run, a traced phase whose searches carry X-IVR-Trace and whose tiers
// run the benchmark's boundary timers, then the same traffic untraced
// for the overhead ratio and the generator, runtime and overload
// counters.
func (b *bench) traced(ctx context.Context) error {
	res, st, led := b.res, b.st, b.led
	half := secs(b.cfg.seconds / 2)

	// Warm-up traffic is neither traced nor timed.
	led.on.Store(false)
	if err := b.warm(ctx); err != nil {
		return err
	}
	led.on.Store(true)
	cache0, kern0 := st.sys.Cache().Stats(), search.ReadKernelStats()
	backend0, reroute0 := backendCounts(st), reroutes(st)
	tr := &recorder{traced: true}
	var next atomic.Int64
	b.env.runClosed(ctx, tr, &next, 1, time.Now().Add(half))
	res.addOps(tr)
	tr.logErrors(b.cfg.workload + " traced")
	if tr.rowErr != nil {
		return tr.rowErr
	}
	cache := cacheDelta(cache0, st.sys.Cache().Stats())
	kern := search.ReadKernelStats()
	backend1, reroute1 := backendCounts(st), reroutes(st)
	led.on.Store(false)

	// Untraced twin phase.
	scrape0, err := scrape(ctx, st.metricsURLs(), scrapedCounters...)
	if err != nil {
		return err
	}
	mem := startMemWindow()
	ur := &recorder{}
	b.env.runClosed(ctx, ur, &next, 1, time.Now().Add(half))
	res.addOps(ur)
	ur.logErrors(b.cfg.workload)
	mf := mem.end()
	scrape1, err := scrape(ctx, st.metricsURLs(), scrapedCounters...)
	if err != nil {
		return err
	}

	rows := tr.rows
	t, err := led.join(rows)
	if err != nil {
		return err
	}
	if t.n == 0 {
		return errors.New("traced phase completed no search")
	}
	path := filepath.Join(b.cfg.workdir, fmt.Sprintf("ledger-%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	if err := writeRows(path, rows); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ledgerbench: %d traced searches written to %s\n", len(rows), path)

	n, nr := int(t.n), int(t.rpcs)
	per := func(v float64) float64 { return v / t.n }
	perRPC := func(v float64) float64 {
		if t.rpcs == 0 {
			return 0
		}
		return v / t.rpcs
	}
	layers := []struct {
		name string
		v    float64
	}{
		{"client.self_us", t.clientSelf}, {"client.wire_us", t.clientWire},
		{"router.self_us", t.routerSelf}, {"router.hop_us", t.routerHop},
		{"webapi.self_us", t.webapiSelf}, {"webapi.encode_us", t.encode},
		{"core.session_us", t.session}, {"retrieval.cache_us", t.cache},
		{"feedback.expand_us", t.expand}, {"search.prepare_us", t.prepare},
		{"distrib.scatter_us", t.scatter}, {"search.merge_us", t.merge},
	}
	var attributed float64
	for _, l := range layers {
		res.set(l.name, per(l.v), "us", n)
		attributed += l.v
	}
	res.set("ledger.search_us", per(t.total), "us", n)
	// The remainder is serve handler time outside the serve root span
	// (see join).
	res.set("ledger.unattributed_us", per(t.total-attributed), "us", n)
	fmt.Fprintf(b.w, "ledger closure: layers sum to %.1f of %.1f us per search, unattributed %.3f us\n",
		per(attributed), per(t.total), per(t.total-attributed))
	res.set("router.reroutes", float64(reroute1-reroute0), "count", n)
	res.set("webapi.events_us", safeDiv(float64(led.eventsNS.Load())/1e3, float64(led.eventsN.Load())), "us", int(led.eventsN.Load()))
	res.set("feedback.expand_terms", safeDiv(t.terms, t.expanded), "count", int(t.expanded))
	res.set("retrieval.cache_hit_ratio", cache.ratio(), "ratio", int(cache.lookups()))
	res.set("search.candidates", per(t.candidates), "count", n)
	scored, skipped := kern.BlocksScored-kern0.BlocksScored, kern.BlocksSkipped-kern0.BlocksSkipped
	res.set("search.block_skip_ratio", safeDiv(float64(skipped), float64(scored+skipped)), "ratio", int(scored+skipped))
	res.set("distrib.rpc_us", perRPC(t.rpcSpan), "us", nr)
	res.set("distrib.wire_us", perRPC(t.rpcWire), "us", nr)
	res.set("distrib.decode_us", perRPC(t.decode), "us", nr)
	res.set("distrib.score_us", perRPC(t.score), "us", nr)
	res.set("distrib.encode_us", perRPC(t.rpcEncode), "us", nr)
	res.set("distrib.req_bytes", perRPC(t.reqBytes), "B", nr)
	res.set("distrib.resp_bytes", perRPC(t.respBytes), "B", nr)
	res.set("distrib.rpcs_per_search", per(t.rpcs), "count", n)
	res.set("distrib.hedges", float64(backend1.hedges-backend0.hedges), "count", nr)
	res.set("distrib.failovers", float64(backend1.failovers-backend0.failovers), "count", nr)
	ops := float64(tr.searches) + float64(len(tr.eventsMS))
	res.set("sessionstore.puts_per_op", safeDiv(float64(led.putN.Load()), ops), "count", int(ops))
	res.set("sessionstore.gets_per_op", safeDiv(float64(led.getN.Load()), ops), "count", int(ops))
	res.set("sessionstore.put_bytes", safeDiv(float64(led.putBytes.Load()), float64(led.putN.Load())), "B", int(led.putN.Load()))
	res.set("admission.shed", scrape1["ivr_admission_shed_total"]-scrape0["ivr_admission_shed_total"], "count", 1)
	res.set("overload.deadline_exceeded", scrape1["ivr_deadline_exceeded_total"]-scrape0["ivr_deadline_exceeded_total"], "count", 1)
	res.set("gen.lag_p99_ms", quantile(ur.gapMS, 0.99), "ms", len(ur.gapMS))
	res.set("runtime.gc_cycles_per_1k_search", safeDiv(float64(mf.gcCycles)*1000, float64(ur.searches)), "count", int(ur.searches))
	res.set("runtime.gc_pause_p99_us", quantile(mf.pausesUS, 0.99), "us", len(mf.pausesUS))
	res.set("trace.overhead_ratio", safeDiv(quantile(tr.searchMS, 0.5), quantile(ur.searchMS, 0.5)), "ratio", len(tr.searchMS))
	b.guards(cache)
	return nil
}

// warm lets lazily built state settle before timing: pooled
// connections, the expander's shot memo, and for browse-hot one search
// per topic so the measured phase sees a filled result cache.
func (b *bench) warm(ctx context.Context) error {
	if b.cfg.workload == wlBrowse {
		c := b.env.clients[0]
		sid, err := c.CreateSession(ctx, client.CreateSessionRequest{UserID: "warm"})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, t := range b.st.arch.Truth.SearchTopics {
			if _, err := c.Search(ctx, client.SearchRequest{SessionID: sid, Query: t.Query, Limit: pageLimit}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		if err := c.DeleteSession(ctx, sid); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	rec := &recorder{}
	var next atomic.Int64
	next.Store(-1)
	b.env.runClosed(ctx, rec, &next, -1, time.Now().Add(warmup))
	if rec.failed > 0 {
		rec.logErrors("warm-up")
		return fmt.Errorf("warm-up: %d of %d operations failed", rec.failed, rec.attempted)
	}
	return nil
}

// guards checks that the run exercised what its workload is for.
func (b *bench) guards(cache cacheStats) {
	res, w, log := b.res, b.w, b.env.log
	switch b.cfg.workload {
	case wlAdapt:
		res.guard(w, "adapt-deep.rounds", log.shortRuns == 0, "%d of %d sessions ended before round %d",
			log.shortRuns, log.completed, adaptRounds)
		res.guard(w, "adapt-deep.cache_hit_ratio", cache.ratio() <= 0.10,
			"%.4f of %d searches served from the cache (limit 0.10)", cache.ratio(), cache.lookups())
	case wlBrowse:
		res.guard(w, "browse-hot.cache_hit_ratio", cache.ratio() >= 0.95,
			"%.4f of %d searches served from the cache (floor 0.95)", cache.ratio(), cache.lookups())
	}
	res.guard(w, "sessions.completed", log.completed > 0, "%d scored sessions finished", log.completed)
}

// printResult writes the metric table, then the JSON line last.
func printResult(w io.Writer, cfg config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "ledgerbench %s seed %d, %s metrics (%d ops attempted, %d failed)\n",
		cfg.workload, cfg.seed, mode, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	for n, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A failed request reads as +Inf latency; JSON cannot carry
			// it, and the run is already failed.
			res.Metrics[n] = metric{Value: -1, Unit: m.Unit}
			res.Correct = false
		}
	}
	out, _ := json.Marshal(res) // plain floats and strings always marshal
	fmt.Fprintln(w, string(out))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
