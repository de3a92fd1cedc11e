package main

import (
	"fmt"
	"math"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/internal/synth"
)

// oracleRepeats is how many more times a session whose page mismatched
// is replayed, to tell a fault of the serving stack from a ranking the
// program itself does not repeat.
const oracleRepeats = 32

// checkOracle replays every sampled session's searches and events on
// an in-process system built from the same collection and config, and
// requires each page the stack served to match it bit for bit: shot
// IDs, scores and order. It returns the pages compared and the
// mismatches, with a description of the first.
func checkOracle(arch *synth.Archive, hists []*history) (pages, bad int, first string, err error) {
	sys, err := core.NewSystemFromCollection(arch.Collection, systemConfig())
	if err != nil {
		return 0, 0, "", fmt.Errorf("oracle system: %w", err)
	}
	for _, h := range hists {
		if len(h.entries) == 0 {
			continue
		}
		want, err := replayOracle(sys, h)
		if err != nil {
			return pages, bad, first, err
		}
		for k, o := range h.searches() {
			pages++
			msg := pageDiff(o, want[k])
			if msg == "" {
				continue
			}
			bad++
			if first == "" {
				spread, err := oracleSpread(arch, h, k)
				if err != nil {
					return pages, bad, first, err
				}
				first = fmt.Sprintf("session %d search %q offset %d step %d: %s; %s",
					h.plan.seq, o.query, o.offset, o.page.Step, msg, spread)
			}
		}
	}
	return pages, bad, first, nil
}

// oraclePage is the oracle's answer to one search: the length of the
// full ranking and the hits of the requested page.
type oraclePage struct {
	total int
	hits  []search.Hit
}

// key spells out the page bit for bit.
func (p oraclePage) key() string {
	var b strings.Builder
	fmt.Fprint(&b, p.total)
	for _, h := range p.hits {
		fmt.Fprintf(&b, " %s:%x", h.ID, math.Float64bits(h.Score))
	}
	return b.String()
}

// replayOracle replays one session's events and searches on sys and
// returns the oracle's page for each search, in order.
func replayOracle(sys *core.System, h *history) ([]oraclePage, error) {
	sid := h.entries[0].sessionID()
	sess := sys.NewSession(sid, profile.New(h.plan.user))
	var pages []oraclePage
	for _, e := range h.entries {
		if e.search == nil {
			for _, ev := range e.events {
				ev.SessionID = sid
				if err := sess.Observe(ev); err != nil {
					return nil, fmt.Errorf("oracle observe: %w", err)
				}
			}
			continue
		}
		res, err := sess.Query(e.search.query)
		if err != nil {
			return nil, fmt.Errorf("oracle query: %w", err)
		}
		hits := res.Hits[min(e.search.offset, len(res.Hits)):]
		pages = append(pages, oraclePage{total: len(res.Hits), hits: hits[:min(len(hits), pageLimit)]})
	}
	return pages, nil
}

// pageDiff describes the first difference between the page the stack
// served for search o and the oracle's page, or returns "" when they
// are bit-identical.
func pageDiff(o *op, want oraclePage) string {
	got := o.page
	switch {
	case got.Total != want.total:
		return fmt.Sprintf("total %d, oracle %d", got.Total, want.total)
	case len(got.Hits) != len(want.hits):
		return fmt.Sprintf("%d hits, oracle %d", len(got.Hits), len(want.hits))
	}
	for i, w := range want.hits {
		if g := got.Hits[i]; g.ShotID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("rank %d: %s %v, oracle %s %v", o.offset+i, g.ShotID, g.Score, w.ID, w.Score)
		}
	}
	return ""
}

// oracleSpread replays session h oracleRepeats more times, on a system
// without a result cache, and says how many distinct versions of its
// k-th search page the program produced and whether the served page is
// one of them. More than one version means the program's own ranking
// differs between identical replays; a single version unlike the served
// page points at the serving stack. Either way the mismatch stays a
// failure.
func oracleSpread(arch *synth.Archive, h *history, k int) (string, error) {
	cfg := systemConfig()
	cfg.CacheSize = 0
	sys, err := core.NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		return "", fmt.Errorf("oracle system: %w", err)
	}
	served := h.searches()[k]
	versions := map[string]bool{}
	among := false
	for i := 0; i < oracleRepeats; i++ {
		pages, err := replayOracle(sys, h)
		if err != nil {
			return "", err
		}
		versions[pages[k].key()] = true
		among = among || pageDiff(served, pages[k]) == ""
	}
	return fmt.Sprintf("%d more oracle replays of the session gave %d distinct versions of this page, the served one among them: %t",
		oracleRepeats, len(versions), among), nil
}

// searches returns the session's searches, in order.
func (h *history) searches() []*op {
	var ops []*op
	for _, e := range h.entries {
		if e.search != nil {
			ops = append(ops, e.search)
		}
	}
	return ops
}

func (e histEntry) sessionID() string {
	if e.search != nil {
		return e.search.sid
	}
	return e.events[0].SessionID
}

// adaptedMAP is the mean average precision of the final rankings of
// sessions 0..n-1 against the archive's qrels, n = min(mapSessions,
// sessions run). Every session's ranking depends only on its own
// inputs, so the figure is fixed by the seed.
func adaptedMAP(arch *synth.Archive, log *sessionLog) (float64, int) {
	var sum float64
	n := 0
	for seq := 0; seq < mapSessions; seq++ {
		final, ok := log.finals[seq]
		if !ok {
			break
		}
		sum += repro.Evaluate(final, repro.TopicJudgments(arch, log.topics[seq])).AP
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
