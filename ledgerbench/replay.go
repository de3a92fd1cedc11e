package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/feedback"
	"repro/internal/index"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/internal/sessionstore"
	"repro/internal/synth"
)

// replayDepths are the feedback depths whose expansion is replayed.
var replayDepths = []int{1, 5, 20}

// replayLayer is one layer's single-threaded cost per call.
type replayLayer struct {
	name   string
	ns     float64
	allocs float64
}

// replayMinTime bounds how long each layer is repeated; allocation
// counts are exact per call whatever the repetition count.
const replayMinTime = 150 * time.Millisecond

// measureCall runs fn repeatedly on this goroutine and returns its
// mean wall time and heap allocations per call.
func measureCall(fn func() error) (ns, allocs float64, err error) {
	for i := 0; i < 3; i++ { // warm lazily built state
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for time.Since(start) < replayMinTime || n < 10 {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(el) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// replayLedger replays recorded adapt-deep inputs through the public
// layer functions, one call at a time: query expansion after 1, 5 and
// 20 feedback rounds, the engine search on the expanded query, session
// encode and restore, and the journal's Put and Get. The inputs are
// the adapt-deep session seq of this seed — the first session the
// traced adapt-deep run sampled for the oracle — so the replay is the
// same on every workload. Call it with the stack closed, so no other
// goroutine allocates.
func replayLedger(ctx context.Context, arch *synth.Archive, seed int64, dir string) ([]replayLayer, error) {
	cfg := systemConfig()
	cfg.CacheSize = 0 // the replay measures the layers, not the cache
	sys, err := core.NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		return nil, fmt.Errorf("replay system: %w", err)
	}
	pl := newPlanner(wlAdapt, seed, arch).plan(0)
	inputs, state, err := recordAdapt(ctx, sys, pl)
	if err != nil {
		return nil, err
	}
	eng := sys.Engine()
	x := newExpander(sys)
	full := sys.Config()
	var out []replayLayer
	add := func(name string, fn func() error) error {
		ns, allocs, err := measureCall(fn)
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		out = append(out, replayLayer{name: name, ns: ns, allocs: allocs})
		return nil
	}
	var deepest search.Query
	q := eng.ParseText(pl.topic.Query)
	for i, in := range inputs {
		in := in
		if err := add(fmt.Sprintf("expand_fb%d", replayDepths[i]), func() error {
			deepest = expandQuery(sys, x, q, in.mass)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := add("search", func() error {
		_, err := eng.SearchContext(ctx, deepest, search.Options{K: full.K, Scorer: full.Scorer})
		return err
	}); err != nil {
		return nil, err
	}
	if err := add("encode_state", func() error {
		_, err := state.EncodeState()
		return err
	}); err != nil {
		return nil, err
	}
	blob, err := state.EncodeState()
	if err != nil {
		return nil, err
	}
	if err := add("restore_session", func() error {
		_, err := sys.RestoreSession(blob)
		return err
	}); err != nil {
		return nil, err
	}
	j, err := sessionstore.OpenJournal(filepath.Join(dir, "replay.jnl"), sessionstore.WithSyncInterval(100*time.Millisecond))
	if err != nil {
		return nil, fmt.Errorf("replay journal: %w", err)
	}
	defer j.Close()
	if err := add("journal_put", func() error { return j.Put(state.ID(), blob) }); err != nil {
		return nil, err
	}
	if err := add("journal_get", func() error {
		_, err := j.Get(state.ID())
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// replayInput is the evidence a session had accumulated before one of
// its searches.
type replayInput struct {
	mass map[string]float64
}

// recordAdapt runs an adapt-deep plan in process and captures the
// relevance mass before the searches at replayDepths. It returns the
// session as it stands after the last round.
func recordAdapt(ctx context.Context, sys *core.System, pl *plan) ([]replayInput, *core.Session, error) {
	sess := sys.NewSession("replay", profile.New(pl.user))
	x := &inProcess{sess: sess, coll: sys.Collection()}
	rec := &recorder{}
	var inputs []replayInput
	x.before = func(o *op) {
		if o.kind == opSearch && len(inputs) < len(replayDepths) && o.depth == replayDepths[len(inputs)] {
			inputs = append(inputs, replayInput{mass: sess.Mass()})
		}
	}
	if out := runSession(ctx, x, rec, pl, nil); out.err != nil {
		return nil, nil, fmt.Errorf("replay session: %w", out.err)
	}
	if len(inputs) != len(replayDepths) {
		return nil, nil, fmt.Errorf("replay session reached %d of %d depths", len(inputs), len(replayDepths))
	}
	return inputs, sess, nil
}

// newExpander wires a feedback.Expander over sys the way
// core.NewSystemFromCollection wires its own, which core keeps private.
// TestReplayMatchesCore pins this copy, and expandQuery's, to core.
func newExpander(sys *core.System) *feedback.Expander {
	eng, coll := sys.Engine(), sys.Collection()
	return feedback.NewExpander(eng.Analyzer(),
		func(id string) (string, bool) {
			shot := coll.Shot(shotID(id))
			if shot == nil {
				return "", false
			}
			return shot.Transcript, true
		},
		func(term string) int { return eng.DocFreq(index.FieldText, term) },
		eng.NumDocs())
}

// expandQuery is the query a session of sys retrieves with for the
// parsed query text q and the given evidence mass: q expanded with
// core's confidence-scaled strength, which grows with the positive mass
// until it saturates.
func expandQuery(sys *core.System, x *feedback.Expander, q search.Query, mass map[string]float64) search.Query {
	cfg := sys.Config()
	var pos float64
	for _, m := range mass {
		if m > 0 {
			pos += m
		}
	}
	beta := cfg.ExpandBeta
	if sat := cfg.ExpandMassSaturation; sat > 0 && pos < sat {
		beta *= pos / sat
	}
	return x.Expand(q, mass, cfg.ExpandTerms, beta)
}

// inProcess executes a session's ops directly on a core.Session, the
// way the serve tier would, to regenerate a session's inputs without
// the stack.
type inProcess struct {
	sess   *core.Session
	coll   *collection.Collection
	before func(*op)
}

func (x *inProcess) exec(ctx context.Context, o *op) {
	if x.before != nil {
		x.before(o)
	}
	o.start = time.Now()
	switch o.kind {
	case opCreate:
		o.created = x.sess.ID()
	case opSearch:
		res, err := x.sess.QueryContext(ctx, o.query)
		if err != nil {
			o.err = err
			break
		}
		page := &client.SearchPage{Step: x.sess.Step(), Total: len(res.Hits), Candidates: res.Candidates}
		hits := res.Hits[min(o.offset, len(res.Hits)):]
		for i, h := range hits[:min(len(hits), pageLimit)] {
			hit := client.Hit{Rank: o.offset + i, ShotID: h.ID, Score: h.Score}
			if shot := x.coll.Shot(shotID(h.ID)); shot != nil {
				hit.Seconds = shot.Duration.Seconds()
			}
			page.Hits = append(page.Hits, hit)
		}
		o.page = page
	case opEvents:
		o.err = x.sess.ObserveAll(o.events)
	}
	o.took = time.Since(o.start)
}

func shotID(id string) collection.ShotID { return collection.ShotID(id) }
