package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/search"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload briefly on the tiny archive, untraced
// and traced, and requires every metric BENCHMARK.json names, with its
// unit, zero failed operations, and oracle parity.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range spec.Workloads {
		name := wl.Name
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{
				workload: name, seed: 7, seconds: 1.5, trace: traced,
				workdir: t.TempDir(), tiny: true, setups: 2,
			}
			var out bytes.Buffer
			res, err := run(context.Background(), cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if !strings.Contains(out.String(), "oracle.parity") {
				t.Errorf("%s trace=%v: no oracle check printed", name, traced)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, traced, err)
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, traced, len(last.Metrics), len(want))
			}
		}
	}
}

// TestReplayMatchesCore pins the replay's copy of core's private
// expansion wiring (newExpander, expandQuery) to core. At every depth
// of an adapt-deep session, the replayed query must have the term count
// core's "expand" span reports, and must retrieve the page core's
// session served. Sessions are checked until one has met evidence
// below the expansion's saturation mass, so the strength scaling is
// pinned as well.
func TestReplayMatchesCore(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), archiveSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := systemConfig()
	cfg.CacheSize = 0      // every search expands
	cfg.UseProfile = false // a served page is then the retrieval's ranking
	sys, err := core.NewSystemFromCollection(arch.Collection, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pn := newPlanner(wlAdapt, 7, arch)
	for seq := 0; seq < 200; seq++ {
		if pinSession(t, sys, pn.plan(seq)) {
			return
		}
	}
	t.Fatal("no session met evidence below the saturation mass")
}

// pinSession runs one session in process and checks the replay against
// it at every depth. It reports whether some depth had positive
// evidence below the saturation mass.
func pinSession(t *testing.T, sys *core.System, pl *plan) (belowSaturation bool) {
	t.Helper()
	cfg := sys.Config()
	sess := sys.NewSession(pl.user, profile.New(pl.user))
	tr, root := trace.New("pin", trace.TierServe, "pin")
	ctx := trace.NewContext(context.Background(), tr, root)
	var masses []map[string]float64 // evidence before each search
	x := &inProcess{sess: sess, coll: sys.Collection(), before: func(o *op) {
		if o.kind == opSearch {
			masses = append(masses, sess.Mass())
		}
	}}
	hist := &history{plan: pl}
	if out := runSession(ctx, x, &recorder{}, pl, hist); out.err != nil {
		t.Fatal(out.err)
	}
	var expandTerms []string // by search, in order
	for _, s := range tr.SnapshotRoot().Children {
		if s.Name == "expand" {
			expandTerms = append(expandTerms, s.Attrs["terms"])
		}
	}
	var pages [][]client.Hit // served pages, in order
	for _, e := range hist.entries {
		if e.search != nil {
			pages = append(pages, e.search.page.Hits)
		}
	}
	if len(expandTerms) != len(pages) || len(masses) != len(pages) {
		t.Fatalf("session %d: %d expand spans, %d masses for %d searches", pl.seq, len(expandTerms), len(masses), len(pages))
	}
	ex := newExpander(sys)
	// core and the replay each sum the evidence mass over a map, so
	// scores may differ in the last bits and tied shots may swap.
	tol := func(s float64) float64 { return 1e-9 * math.Max(math.Abs(s), 1) }
	for d, want := range pages {
		var pos float64
		for _, m := range masses[d] {
			pos += max(m, 0)
		}
		belowSaturation = belowSaturation || (pos > 0 && pos < cfg.ExpandMassSaturation)
		q := expandQuery(sys, ex, sys.Engine().ParseText(pl.topic.Query), masses[d])
		if got := strconv.Itoa(len(q.Terms)); got != expandTerms[d] {
			t.Errorf("session %d depth %d: replay expands to %s terms, core to %s", pl.seq, d, got, expandTerms[d])
		}
		res, err := sys.Engine().SearchContext(context.Background(), q, search.Options{K: cfg.K, Scorer: cfg.Scorer})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Hits[:min(len(res.Hits), len(want))]
		if len(got) != len(want) {
			t.Fatalf("session %d depth %d: replay retrieves %d hits, core served %d", pl.seq, d, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > tol(want[i].Score) {
				t.Errorf("session %d depth %d rank %d: replay score %v, core %v", pl.seq, d, i, got[i].Score, want[i].Score)
				continue
			}
			tied := false
			for _, w := range want {
				tied = tied || (w.ShotID == got[i].ID && math.Abs(w.Score-want[i].Score) <= tol(w.Score))
			}
			if !tied {
				t.Errorf("session %d depth %d rank %d: replay %s, core %s", pl.seq, d, i, got[i].ID, want[i].ShotID)
			}
		}
	}
	return belowSaturation
}

// TestOracleSpread checks the diagnosis printed with a parity mismatch:
// a page core served is among the oracle's replays of its session, and
// a page with a changed score is not.
func TestOracleSpread(t *testing.T) {
	arch, err := synth.Generate(synth.TinyConfig(), archiveSeed)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystemFromCollection(arch.Collection, systemConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlanner(wlAdapt, 7, arch).plan(0)
	x := &inProcess{sess: sys.NewSession(pl.user, profile.New(pl.user)), coll: sys.Collection()}
	hist := &history{plan: pl}
	if out := runSession(context.Background(), x, &recorder{}, pl, hist); out.err != nil {
		t.Fatal(out.err)
	}
	ops := hist.searches()
	k := len(ops) - 1
	got, err := oracleSpread(arch, hist, k)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got, "among them: true") {
		t.Errorf("served page: %s", got)
	}
	ops[k].page.Hits[0].Score *= 2
	if got, err = oracleSpread(arch, hist, k); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(got, "among them: false") {
		t.Errorf("changed page: %s", got)
	}
}
