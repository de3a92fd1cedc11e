package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sessionstore"
	"repro/internal/trace"
)

// Tiers whose handlers the traced run wraps, and the outbound hops
// whose transports it wraps (named by the tier they call).
const (
	tierRouter = iota
	tierServe
	tierSegment
)

const (
	hopRouter  = iota // SDK → router
	hopServe          // router → serve
	hopSegment        // serve → segment
)

// ledger collects the traced run's boundary timers. Handler and
// transport wrappers record per request ID; searches are joined with
// their span trees only after the run has drained, because a tier's
// handler returns after its client may already hold the last byte.
type ledger struct {
	// on gates every timer; off, the wrappers pass straight through,
	// so the untraced twin phase runs on the same stack.
	on  atomic.Bool
	seq atomic.Int64

	mu   sync.Mutex
	hops map[string]*hopRecord

	// Aggregates without a per-search join.
	eventsN, eventsNS     atomic.Int64 // serve handler time of POST /events
	putN, putNS, putBytes atomic.Int64 // session store
	getN, getNS           atomic.Int64
}

// hopRecord is one request's boundary timings, in nanoseconds.
type hopRecord struct {
	ClientRT int64              `json:"client_rt"`
	RouterH  int64              `json:"router_handler"`
	ServeRT  int64              `json:"serve_rt"`
	ServeH   int64              `json:"serve_handler"`
	Segs     map[string]*segHop `json:"segments"` // by backend host
}

// segHop is one segment RPC as seen from both ends.
type segHop struct {
	RT        int64 `json:"rt"`
	Handler   int64 `json:"handler"`
	ReqBytes  int64 `json:"req_bytes"`
	RespBytes int64 `json:"resp_bytes"`
}

func newLedger() *ledger {
	l := &ledger{hops: make(map[string]*hopRecord)}
	l.on.Store(true)
	return l
}

func (l *ledger) record(id string, fn func(*hopRecord)) {
	if id == "" {
		return
	}
	l.mu.Lock()
	h := l.hops[id]
	if h == nil {
		h = &hopRecord{}
		l.hops[id] = h
	}
	fn(h)
	l.mu.Unlock()
}

func (l *ledger) seg(h *hopRecord, host string) *segHop {
	if h.Segs == nil {
		h.Segs = make(map[string]*segHop, numSegments)
	}
	s := h.Segs[host]
	if s == nil {
		s = &segHop{}
		h.Segs[host] = s
	}
	return s
}

// take removes and returns a request's record.
func (l *ledger) take(id string) *hopRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.hops[id]
	delete(l.hops, id)
	return h
}

// handler times one tier's whole request handling. A nil ledger
// returns h unchanged, so untraced runs carry no wrapper.
func (l *ledger) handler(tier int, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := int64(time.Since(start))
		id := r.Header.Get(trace.RequestIDHeader)
		switch tier {
		case tierRouter:
			l.record(id, func(h *hopRecord) { h.RouterH = d })
		case tierServe:
			if r.URL.Path == "/api/v1/events" {
				l.eventsN.Add(1)
				l.eventsNS.Add(d)
				return
			}
			l.record(id, func(h *hopRecord) { h.ServeH = d })
		case tierSegment:
			host := r.Host
			l.record(id, func(h *hopRecord) { l.seg(h, host).Handler = d })
		}
	})
}

// transport times one outbound hop from request start until the
// response body is fully read. It reads the body eagerly so decode
// time in the caller is not counted as transfer time. On the SDK hop
// it also stamps a request ID, so every tier files its timers under
// the same key.
func (l *ledger) transport(hop int, base http.RoundTripper) http.RoundTripper {
	return &timedTransport{l: l, hop: hop, base: base}
}

type timedTransport struct {
	l    *ledger
	hop  int
	base http.RoundTripper
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.l.on.Load() {
		return t.base.RoundTrip(req)
	}
	id := req.Header.Get(trace.RequestIDHeader)
	if t.hop == hopRouter && id == "" {
		id = "lb" + strconv.FormatInt(t.l.seq.Add(1), 10)
		req = req.Clone(req.Context())
		req.Header.Set(trace.RequestIDHeader, id)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	d := int64(time.Since(start))
	switch t.hop {
	case hopRouter:
		t.l.record(id, func(h *hopRecord) { h.ClientRT = d })
	case hopServe:
		t.l.record(id, func(h *hopRecord) { h.ServeRT = d })
	case hopSegment:
		host, reqBytes, respBytes := req.URL.Host, req.ContentLength, int64(len(body))
		t.l.record(id, func(h *hopRecord) {
			s := t.l.seg(h, host)
			s.RT, s.ReqBytes, s.RespBytes = d, reqBytes, respBytes
		})
	}
	return resp, nil
}

// timedStore times the session journal behind the manager.
type timedStore struct {
	sessionstore.SessionStore
	led *ledger
}

func (s *timedStore) Put(id string, state []byte) error {
	if !s.led.on.Load() {
		return s.SessionStore.Put(id, state)
	}
	start := time.Now()
	err := s.SessionStore.Put(id, state)
	s.led.putNS.Add(int64(time.Since(start)))
	s.led.putN.Add(1)
	s.led.putBytes.Add(int64(len(state)))
	return err
}

func (s *timedStore) Get(id string) ([]byte, error) {
	if !s.led.on.Load() {
		return s.SessionStore.Get(id)
	}
	start := time.Now()
	b, err := s.SessionStore.Get(id)
	s.led.getNS.Add(int64(time.Since(start)))
	s.led.getN.Add(1)
	return b, err
}

// searchRow is one traced search: the client-observed latency and the
// span-tree figures, taken when the reply arrives. Durations are µs.
type searchRow struct {
	ID         string  `json:"id"`
	Depth      int     `json:"depth"`
	TotalUS    float64 `json:"total_us"`
	Candidates int     `json:"candidates"`

	ServeUS   float64    `json:"serve_us"`
	SessionUS float64    `json:"session_us"`
	RestoreUS float64    `json:"restore_us"`
	CacheUS   float64    `json:"cache_us"`
	CacheHit  bool       `json:"cache_hit"`
	ExpandUS  float64    `json:"expand_us"`
	Expanded  bool       `json:"expanded"`
	Terms     int        `json:"terms"`
	PrepareUS float64    `json:"prepare_us"`
	MergeUS   float64    `json:"merge_us"`
	ScatterUS float64    `json:"scatter_us"`
	EncodeUS  float64    `json:"encode_us"`
	RPCs      []rpcRow   `json:"rpcs,omitempty"`
	CacheRest float64    `json:"cache_rest_us"`
	Hops      *hopRecord `json:"-"`
}

// rpcRow is one segment RPC's server-side spans (µs).
type rpcRow struct {
	Host     string  `json:"host"`
	SpanUS   float64 `json:"span_us"`
	DecodeUS float64 `json:"decode_us"`
	ScoreUS  float64 `json:"score_us"`
	EncodeUS float64 `json:"encode_us"`
}

// rowFromTree reads the grafted router → serve → segment tree echoed
// to the SDK.
func rowFromTree(id string, depth int, total time.Duration, candidates int, root *trace.Span) (*searchRow, error) {
	row := &searchRow{ID: id, Depth: depth, TotalUS: us(total), Candidates: candidates}
	serve := findTier(root, trace.TierServe)
	if serve == nil {
		return nil, fmt.Errorf("trace of %s has no serve tier", id)
	}
	row.ServeUS = float64(serve.DurUS)
	for _, c := range serve.Children {
		switch c.Name {
		case "session":
			row.SessionUS = float64(c.DurUS)
			for _, s := range c.Children {
				switch s.Name {
				case "restore":
					row.RestoreUS += float64(s.DurUS)
				case "cache":
					row.readCache(s)
				}
			}
		case "encode":
			row.EncodeUS = float64(c.DurUS)
		}
	}
	return row, nil
}

func (row *searchRow) readCache(c *trace.Span) {
	row.CacheUS = float64(c.DurUS)
	row.CacheHit = c.Attrs["hit"] == "true"
	var segs []*trace.Span
	for _, s := range c.Children {
		switch s.Name {
		case "expand":
			row.ExpandUS += float64(s.DurUS)
			row.Expanded = true
			row.Terms, _ = strconv.Atoi(s.Attrs["terms"])
		case "prepare":
			row.PrepareUS += float64(s.DurUS)
		case "merge":
			row.MergeUS += float64(s.DurUS)
		case "segment":
			segs = append(segs, s)
			rpc := rpcRow{Host: s.Attrs["backend"], SpanUS: float64(s.DurUS)}
			if remote := findTier(s, trace.TierSegment); remote != nil {
				for _, r := range remote.Children {
					switch r.Name {
					case "decode":
						rpc.DecodeUS += float64(r.DurUS)
					case "score":
						rpc.ScoreUS += float64(r.DurUS)
					case "encode":
						rpc.EncodeUS += float64(r.DurUS)
					}
				}
			}
			row.RPCs = append(row.RPCs, rpc)
		}
	}
	row.ScatterUS = unionUS(segs)
	row.CacheRest = row.CacheUS - row.ExpandUS - row.PrepareUS - row.MergeUS - row.ScatterUS
}

// findTier returns the first span rooted in the given tier, depth-first.
func findTier(s *trace.Span, tier string) *trace.Span {
	if s == nil {
		return nil
	}
	if s.Tier == tier {
		return s
	}
	for _, c := range s.Children {
		if f := findTier(c, tier); f != nil {
			return f
		}
	}
	return nil
}

// unionUS is the wall time covered by a set of (possibly overlapping)
// spans: the blocking-path share of a concurrent scatter.
func unionUS(spans []*trace.Span) float64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.StartUS, s.StartUS + s.DurUS}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	total += cur[1] - cur[0]
	return float64(total)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerTotals sums the per-layer ledger over the joined searches.
type layerTotals struct {
	n, rpcs, expanded                          float64
	total, clientSelf, clientWire, routerSelf  float64
	routerHop, webapiSelf, encode, session     float64
	cache, expand, terms, prepare, merge       float64
	scatter, candidates                        float64
	rpcSpan, rpcWire, decode, score, rpcEncode float64
	reqBytes, respBytes                        float64
}

// join matches every traced search with its boundary timers and sums
// the ledger. Outside the serve tier a layer's self time is one
// boundary timer minus the next; inside it, a span minus its children,
// starting from the serve root span. The serve root span is stamped
// when the response headers flush, so serve handler time outside it
// (the body write, request logging, the tracer's finish) belongs to no
// layer: it is the unattributed remainder, measured by two clocks.
func (l *ledger) join(rows []*searchRow) (*layerTotals, error) {
	t := &layerTotals{}
	for _, row := range rows {
		h := l.take(row.ID)
		if h == nil || h.ClientRT == 0 || h.RouterH == 0 || h.ServeRT == 0 || h.ServeH == 0 {
			return nil, fmt.Errorf("search %s: boundary timers missing", row.ID)
		}
		row.Hops = h
		ns := func(v int64) float64 { return float64(v) / 1e3 }
		t.n++
		t.total += row.TotalUS
		t.clientSelf += row.TotalUS - ns(h.ClientRT)
		t.clientWire += ns(h.ClientRT - h.RouterH)
		t.routerSelf += ns(h.RouterH - h.ServeRT)
		t.routerHop += ns(h.ServeRT - h.ServeH)
		t.webapiSelf += row.ServeUS - row.SessionUS - row.EncodeUS
		t.encode += row.EncodeUS
		t.session += row.SessionUS - row.CacheUS
		t.cache += row.CacheRest
		t.expand += row.ExpandUS
		t.prepare += row.PrepareUS
		t.merge += row.MergeUS
		t.scatter += row.ScatterUS
		t.candidates += float64(row.Candidates)
		if row.Expanded {
			t.expanded++
			t.terms += float64(row.Terms)
		}
		for _, rpc := range row.RPCs {
			s := h.Segs[hostOf(rpc.Host)]
			if s == nil {
				return nil, fmt.Errorf("search %s: no timers for segment RPC to %s", row.ID, rpc.Host)
			}
			t.rpcs++
			t.rpcSpan += ns(s.RT)
			t.rpcWire += ns(s.RT - s.Handler)
			t.decode += rpc.DecodeUS
			t.score += rpc.ScoreUS
			t.rpcEncode += rpc.EncodeUS
			t.reqBytes += float64(s.ReqBytes)
			t.respBytes += float64(s.RespBytes)
		}
	}
	return t, nil
}

// hostOf strips the scheme from a backend base URL.
func hostOf(addr string) string {
	if _, host, ok := strings.Cut(addr, "://"); ok {
		return host
	}
	return addr
}

// writeRows writes the traced searches out as JSON lines.
func writeRows(path string, rows []*searchRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(struct {
			*searchRow
			Hops *hopRecord `json:"hops_ns"`
		}{r, r.Hops}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
