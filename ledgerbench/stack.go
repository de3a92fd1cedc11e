package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/router"
	"repro/internal/sessionstore"
	"repro/internal/synth"
	"repro/internal/webapi"
)

// The stack mirrors the binaries' default flags (ivrsegment, ivrserve,
// ivrroute) so the benchmark measures the configuration an operator
// gets without tuning.
const (
	numSegments = 2
	rankDepth   = 200  // ivrserve -depth
	cacheSize   = 4096 // ivrserve -search-cache
)

// stackOptions selects what one boot wires in.
type stackOptions struct {
	// journalPath arms the durable session journal when non-empty.
	journalPath string
	// led, when non-nil, receives the benchmark's boundary timers:
	// every tier's handler and outbound transport is wrapped, and the
	// session store is timed. Nil in untraced runs.
	led *ledger
}

// stack is the three-tier system booted in this process on loopback:
// router → webapi (core + retrieval cache) → distrib cluster of
// numSegments segment servers, one segment each.
type stack struct {
	arch      *synth.Archive
	cfg       core.Config
	routerURL string
	serveURL  string
	segURLs   []string

	rt      *router.Router
	srv     *webapi.Server
	sys     *core.System
	cluster *distrib.Cluster
	journal *sessionstore.JournalStore
	servers []*http.Server
}

// systemConfig is the serve tier's configuration: the combined preset
// at ivrserve's default depth and cache size. The oracle uses the same.
func systemConfig() core.Config {
	cfg, err := core.Preset(core.PresetCombined)
	if err != nil {
		panic(err) // the preset name is a constant
	}
	cfg.K = rankDepth
	cfg.CacheSize = cacheSize
	return cfg
}

// setupStack generates the archive, builds the segment index and boots
// every tier, returning once the router answers healthy. Its wall time
// is the benchmark's set-up time.
func setupStack(ctx context.Context, acfg synth.Config, opts stackOptions) (*stack, error) {
	arch, err := synth.Generate(acfg, archiveSeed)
	if err != nil {
		return nil, fmt.Errorf("generate archive: %w", err)
	}
	st := &stack{arch: arch, cfg: systemConfig()}
	if err := st.boot(ctx, opts); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func (st *stack) boot(ctx context.Context, opts stackOptions) error {
	led := opts.led
	sh, err := core.BuildShardedIndex(st.arch.Collection, nil, numSegments)
	if err != nil {
		return fmt.Errorf("segment index: %w", err)
	}
	hash := distrib.CollectionSourceHash(st.arch.Collection)
	groups := make([]distrib.TopologyGroup, numSegments)
	for i := 0; i < numSegments; i++ {
		seg, err := distrib.NewSegmentServer(distrib.ServerConfig{
			Sharded:    sh,
			Hosted:     []int{i},
			SourceHash: hash,
		})
		if err != nil {
			return fmt.Errorf("segment server %d: %w", i, err)
		}
		url, err := st.listen(led.handler(tierSegment, seg.Handler()))
		if err != nil {
			return err
		}
		st.segURLs = append(st.segURLs, url)
		groups[i] = distrib.TopologyGroup{Segments: []int{i}, Replicas: []string{url}}
	}

	copts := []distrib.Option{
		distrib.WithTimeout(distrib.DefaultRPCTimeout),
		distrib.WithProbeInterval(2 * time.Second),
		distrib.WithRetryBudget(0.1, 64),
		distrib.WithBreaker(5, 5*time.Second),
		distrib.WithDegraded(),
	}
	if led != nil {
		copts = append(copts, distrib.WithHTTPClient(&http.Client{
			Transport: led.transport(hopSegment, http.DefaultTransport),
		}))
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	st.cluster, err = distrib.ConnectTopology(cctx, &distrib.TopologyDesc{Version: distrib.TopologyVersion, Groups: groups}, copts...)
	cancel()
	if err != nil {
		return fmt.Errorf("connect segment servers: %w", err)
	}
	st.sys, err = core.NewSystem(st.cluster.NewEngine(nil, st.cluster.NumSegments()), st.arch.Collection, st.cfg)
	if err != nil {
		return fmt.Errorf("system: %w", err)
	}
	st.sys.SetBackendTelemetry(st.cluster.BackendSummaries)

	wopts := []webapi.Option{webapi.WithSessionTTL(30 * time.Minute)}
	if opts.journalPath != "" {
		st.journal, err = sessionstore.OpenJournal(opts.journalPath, sessionstore.WithSyncInterval(100*time.Millisecond))
		if err != nil {
			return fmt.Errorf("open journal: %w", err)
		}
		var store sessionstore.SessionStore = st.journal
		if led != nil {
			store = &timedStore{SessionStore: st.journal, led: led}
		}
		wopts = append(wopts, webapi.WithSessionStore(store))
	}
	st.srv, err = webapi.NewServer(st.sys, wopts...)
	if err != nil {
		return fmt.Errorf("webapi: %w", err)
	}
	st.serveURL, err = st.listen(led.handler(tierServe, st.srv.Handler()))
	if err != nil {
		return err
	}

	rcfg := router.Config{Replicas: []string{st.serveURL}}
	if led != nil {
		rcfg.Client = &http.Client{Transport: led.transport(hopServe, newTransport(0, 32))}
	}
	st.rt, err = router.New(rcfg)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	st.routerURL, err = st.listen(led.handler(tierRouter, st.rt))
	if err != nil {
		return err
	}
	return st.waitHealthy(ctx)
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.servers = append(st.servers, hs)
	go func() { _ = hs.Serve(l) }() // returns ErrServerClosed on Close
	return "http://" + l.Addr().String(), nil
}

// waitHealthy polls the router's health route through the SDK.
func (st *stack) waitHealthy(ctx context.Context) error {
	c, err := client.New(st.routerURL, client.WithTimeout(2*time.Second))
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Healthz(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %q", h.Status)
			}
			return fmt.Errorf("router never answered healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops every listener and tier, waiting for their goroutines.
func (st *stack) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Front to back, so no tier is torn down under a live caller.
	for i := len(st.servers) - 1; i >= 0; i-- {
		if err := st.servers[i].Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = st.servers[i].Close()
		}
	}
	if st.rt != nil {
		st.rt.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.journal != nil {
		st.journal.Close()
	}
	if st.cluster != nil {
		st.cluster.Close()
	}
}

// newTransport returns a dedicated connection pool (maxConns 0 is
// unbounded), so each caller's connections are its own and not shared
// through http.DefaultTransport.
func newTransport(maxConns, maxIdle int) *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		ResponseHeaderTimeout: 30 * time.Second,
		MaxConnsPerHost:       maxConns,
		MaxIdleConnsPerHost:   maxIdle,
		IdleConnTimeout:       90 * time.Second,
	}
}

// newSDK returns an SDK client with a one-connection pool of its own;
// the ledger, when set, times its transport round trips.
func newSDK(baseURL string, led *ledger) (*client.Client, error) {
	var rt http.RoundTripper = newTransport(1, 1)
	if led != nil {
		rt = led.transport(hopRouter, rt)
	}
	return client.New(baseURL, client.WithTimeout(10*time.Second), client.WithHTTPClient(&http.Client{
		Transport: rt,
		Timeout:   10 * time.Second,
	}))
}

// journalFile names the journal of one boot inside dir.
func journalFile(dir string, boot int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-%d.jnl", boot))
}
