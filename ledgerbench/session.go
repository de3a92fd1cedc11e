package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/ilog"
	"repro/internal/simulation"
	"repro/internal/synth"
	"repro/internal/ui"
)

// Session shapes of the workloads.
const (
	adaptRounds    = 20 // feedback rounds of an adapt-deep session
	pageLimit      = 20 // ui.Desktop page size
	browsePages    = 3  // result pages a browse-hot session walks
	unlimitedSpend = 1e12
)

// plan is one session's inputs, fixed by (seed, seq) alone, so the
// oracle and the layer replay can regenerate any session exactly.
type plan struct {
	workload string
	seq      int
	user     string
	topic    *synth.SearchTopic
	judg     repro.Judgments
	pol      simulation.Policy
	rounds   int
	budget   float64
}

// planner derives session plans for one workload and seed.
type planner struct {
	workload string
	seed     int64
	arch     *synth.Archive
	iface    *ui.Interface
	judg     []repro.Judgments // by search topic
}

func newPlanner(workload string, seed int64, arch *synth.Archive) *planner {
	p := &planner{workload: workload, seed: seed, arch: arch, iface: ui.Desktop()}
	for _, t := range arch.Truth.SearchTopics {
		p.judg = append(p.judg, repro.TopicJudgments(arch, t.ID))
	}
	return p
}

// plan returns session seq's inputs. Every session draws its own
// behaviour stream, so no two adapt-deep sessions share evidence even
// when they share a topic.
func (p *planner) plan(seq int) *plan {
	rng := rand.New(rand.NewSource(p.seed*1_000_003 + int64(seq)*7919 + 17))
	// Topics are dealt in seeded rounds, each a permutation of all of
	// them, so any window of consecutive sessions covers the topics
	// evenly and adapted_map does not hinge on which topics were drawn.
	topics := p.arch.Truth.SearchTopics
	round := int64(seq / len(topics))
	ti := rand.New(rand.NewSource(p.seed*7_777_777 + round)).Perm(len(topics))[seq%len(topics)]
	st := simulation.Stereotypes()
	pl := &plan{
		workload: p.workload,
		seq:      seq,
		user:     fmt.Sprintf("u%d", seq),
		topic:    topics[ti],
		judg:     p.judg[ti],
		pol: simulation.Policy{
			Stereotype: st[seq%len(st)],
			Iface:      p.iface,
			Rand:       rng,
		},
		budget: p.iface.SessionBudget,
	}
	switch p.workload {
	case wlAdapt:
		// The stock desktop budget ends a session after about five
		// rounds; adapt-deep must reach all of them.
		pl.rounds, pl.budget = adaptRounds, unlimitedSpend
	case wlBrowse:
		pl.rounds = browsePages
	}
	return pl
}

// opKind labels the SDK calls a session makes.
type opKind int

const (
	opCreate opKind = iota
	opSearch
	opEvents
	opShot
	opDelete
)

// op is one SDK call.
type op struct {
	kind   opKind
	user   string
	sid    string
	query  string
	offset int
	depth  int // feedback rounds before this search
	events []ilog.Event
	shot   string
	trace  bool

	// Filled by the executor.
	page    *client.SearchPage
	created string
	start   time.Time
	took    time.Duration // from start to reply
	err     error
}

// executor runs one op: through the SDK against the stack, or in
// process on a core.Session to regenerate a session's inputs.
type executor interface {
	exec(ctx context.Context, o *op)
}

// history is a sampled session's exchange, replayed by the oracle.
type history struct {
	plan    *plan
	entries []histEntry
}

type histEntry struct {
	search *op // query, offset and the page the stack returned
	events []ilog.Event
}

// sessionOutcome is what one finished session reports.
type sessionOutcome struct {
	finalStep int
	final     []string // ranking scored for adapted_map
	err       error
}

// runSession drives one virtual user through its workload's script.
func runSession(ctx context.Context, x executor, rec *recorder, pl *plan, hist *history) sessionOutcome {
	var out sessionOutcome
	var lastDone time.Time
	do := func(o *op) error {
		o.user, o.trace = pl.user, rec.traced && o.kind == opSearch
		if !lastDone.IsZero() {
			rec.gap(time.Since(lastDone))
		}
		x.exec(ctx, o)
		lastDone = o.start.Add(o.took)
		rec.observe(o)
		if o.err == nil && o.kind == opSearch && o.page.Partial {
			o.err = fmt.Errorf("partial page for %q", o.query)
		}
		return o.err
	}
	create := &op{kind: opCreate}
	if out.err = do(create); out.err != nil {
		return out
	}
	sid := create.created
	defer func() {
		// The delete is part of the session and runs even after a
		// failure, so the server's session table stays bounded.
		if err := do(&op{kind: opDelete, sid: sid}); err != nil && out.err == nil {
			out.err = err
		}
	}()

	seen := map[string]bool{}
	budget := pl.budget
	var clickLog []ilog.Event
	search := func(offset, depth int) (*client.SearchPage, error) {
		o := &op{kind: opSearch, sid: sid, query: pl.topic.Query, offset: offset, depth: depth}
		if err := do(o); err != nil {
			return nil, err
		}
		out.finalStep = o.page.Step
		if hist != nil {
			hist.entries = append(hist.entries, histEntry{search: o})
		}
		return o.page, nil
	}
	sendEvents := func(events []ilog.Event) error {
		if err := do(&op{kind: opEvents, sid: sid, events: events}); err != nil {
			return err
		}
		if hist != nil {
			hist.entries = append(hist.entries, histEntry{events: events})
		}
		return nil
	}
	examine := func(page *client.SearchPage, step int) ([]ilog.Event, []string) {
		events := []ilog.Event{{Action: ilog.ActionQuery, Query: pl.topic.Query, Step: step, Rank: -1}}
		var clicked []string
		views := make([]simulation.ResultView, 0, len(page.Hits))
		for _, h := range page.Hits {
			views = append(views, simulation.ResultView{ShotID: h.ShotID, Relevant: pl.judg[h.ShotID] >= 1, Seconds: h.Seconds})
		}
		_ = pl.pol.Examine(views, step, seen, &budget, func(e ilog.Event) error {
			if e.Action == ilog.ActionClickKeyframe {
				clicked = append(clicked, e.ShotID)
			}
			events = append(events, e)
			return nil
		}) // emit never fails
		for i := range events {
			events[i].SessionID, events[i].UserID = sid, pl.user
			events[i].Interface, events[i].TopicID = pl.pol.Iface.Name, pl.topic.ID
			// A clock derived from the plan keeps the events a
			// function of the seed.
			events[i].Time = time.Unix(0, 0).UTC().Add(time.Duration(pl.seq*1000+step) * time.Second)
		}
		return events, clicked
	}

	switch pl.workload {
	case wlAdapt:
		for r := 0; r < pl.rounds; r++ {
			page, err := search(0, r)
			if err != nil {
				out.err = err
				return out
			}
			events, _ := examine(page, r)
			if out.err = sendEvents(events); out.err != nil {
				return out
			}
		}
		page, err := search(0, pl.rounds)
		if err != nil {
			out.err = err
			return out
		}
		out.final = hitIDs(page)
	case wlBrowse:
		for pg := 0; pg < browsePages; pg++ {
			page, err := search(pg*pageLimit, 0)
			if err != nil {
				out.err = err
				return out
			}
			out.final = append(out.final, hitIDs(page)...)
			events, clicked := examine(page, pg)
			clickLog = append(clickLog, events...)
			for _, shot := range clicked {
				if out.err = do(&op{kind: opShot, sid: sid, shot: shot}); out.err != nil {
					return out
				}
			}
		}
		// The click log is posted once, as the user leaves: no search
		// follows it, so every search of the session stays cacheable.
		out.err = sendEvents(clickLog)
	}
	return out
}

func hitIDs(page *client.SearchPage) []string {
	ids := make([]string, len(page.Hits))
	for i, h := range page.Hits {
		ids[i] = h.ShotID
	}
	return ids
}
