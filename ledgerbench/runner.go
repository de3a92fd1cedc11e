package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// direct is the benchmark's executor: the calling virtual user waits
// for its own connection.
type direct struct{ c *client.Client }

func (d direct) exec(ctx context.Context, o *op) {
	o.start = time.Now()
	switch o.kind {
	case opCreate:
		o.created, o.err = d.c.CreateSession(ctx, client.CreateSessionRequest{UserID: o.user})
	case opSearch:
		o.page, o.err = d.c.Search(ctx, client.SearchRequest{
			SessionID: o.sid, Query: o.query, Offset: o.offset, Limit: pageLimit, Trace: o.trace,
		})
	case opEvents:
		_, o.err = d.c.SendEvents(ctx, o.sid, o.events)
	case opShot:
		_, o.err = d.c.Shot(ctx, o.shot)
	case opDelete:
		o.err = d.c.DeleteSession(ctx, o.sid)
	}
	o.took = time.Since(o.start)
}

// recorder collects one phase's client-side observations. Safe for
// concurrent use.
type recorder struct {
	traced bool

	mu        sync.Mutex
	searchMS  []float64
	eventsMS  []float64
	gapMS     []float64
	attempted int64
	failed    int64
	searches  int64
	errs      []string
	rows      []*searchRow
	rowErr    error
	first     time.Time
	last      time.Time
}

const maxLoggedErrors = 5

func (r *recorder) observe(o *op) {
	end := o.start.Add(o.took)
	ms := float64(o.took) / 1e6
	var row *searchRow
	var rowErr error
	if o.err == nil && o.trace {
		row, rowErr = rowFromTree(o.page.RequestID, o.depth, o.took, o.page.Candidates, o.page.Trace)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.first.IsZero() || o.start.Before(r.first) {
		r.first = o.start
	}
	if end.After(r.last) {
		r.last = end
	}
	r.attempted++
	failed := o.err != nil || (o.kind == opSearch && o.page.Partial)
	if failed {
		r.failed++
		if len(r.errs) < maxLoggedErrors {
			msg := "partial page"
			if o.err != nil {
				msg = o.err.Error()
			}
			r.errs = append(r.errs, msg)
		}
	}
	switch o.kind {
	case opSearch:
		if failed {
			r.searchMS = append(r.searchMS, math.Inf(1)) // a failure misses any limit
			return
		}
		r.searches++
		r.searchMS = append(r.searchMS, ms)
		if row != nil {
			r.rows = append(r.rows, row)
		}
		if rowErr != nil && r.rowErr == nil {
			r.rowErr = rowErr
		}
	case opEvents:
		if failed {
			r.eventsMS = append(r.eventsMS, math.Inf(1))
			return
		}
		r.eventsMS = append(r.eventsMS, ms)
	}
}

// gap records the generator's own time between a reply and the
// session's next request.
func (r *recorder) gap(d time.Duration) {
	r.mu.Lock()
	r.gapMS = append(r.gapMS, float64(d)/1e6)
	r.mu.Unlock()
}

// elapsed is the span from the first request to the last reply.
func (r *recorder) elapsed() time.Duration { return r.last.Sub(r.first) }

func (r *recorder) logErrors(phase string) {
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "ledgerbench: %s: failed op: %s\n", phase, e)
	}
}

// sessionLog gathers finished sessions: final rankings for
// adapted_map, sampled histories for the oracle, guard counters.
type sessionLog struct {
	mu        sync.Mutex
	finals    map[int][]string
	topics    map[int]int
	histories []*history
	shortRuns int // adapt-deep sessions that ended before their last round
	completed int
}

func newSessionLog() *sessionLog {
	return &sessionLog{finals: map[int][]string{}, topics: map[int]int{}}
}

// Sessions scored for adapted_map and sampled for the oracle.
const (
	mapSessions = 100
	oracleEvery = 8
)

func (l *sessionLog) add(pl *plan, out sessionOutcome, hist *history) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if out.err != nil {
		return
	}
	l.completed++
	if pl.seq >= 0 && pl.seq < mapSessions {
		l.finals[pl.seq] = out.final
		l.topics[pl.seq] = pl.topic.ID
	}
	if hist != nil {
		l.histories = append(l.histories, hist)
	}
	if pl.workload == wlAdapt && out.finalStep != adaptRounds+1 {
		l.shortRuns++
	}
}

// env is what a phase needs to run sessions against the stack.
type env struct {
	planner *planner
	clients []*client.Client
	log     *sessionLog
}

// runOne runs session seq and files its outcome. Warm-up sessions use
// negative sequence numbers: they draw their own inputs and are never
// scored or sampled.
func (e *env) runOne(ctx context.Context, x executor, rec *recorder, seq int) {
	var pl *plan
	if seq < 0 {
		pl = e.planner.plan(math.MaxInt32 + seq)
		pl.seq = seq
	} else {
		pl = e.planner.plan(seq)
	}
	var hist *history
	if seq >= 0 && seq%oracleEvery == 0 {
		hist = &history{plan: pl}
	}
	out := runSession(ctx, x, rec, pl, hist)
	if seq >= 0 {
		e.log.add(pl, out, hist)
	}
}

// runClosed drives one session per client back to back until the
// deadline, then lets the sessions in flight finish: the cut-off
// starts no session and fails none. Sequence numbers come from next.
func (e *env) runClosed(ctx context.Context, rec *recorder, next *atomic.Int64, stride int64, until time.Time) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(x direct) {
			defer wg.Done()
			for time.Now().Before(until) && ctx.Err() == nil {
				e.runOne(ctx, x, rec, int(next.Add(stride)-stride))
			}
		}(direct{c})
	}
	wg.Wait()
}
