package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scholarrank/internal/core"
)

// toyScale shrinks every corpus to a few thousand articles.
const toyScale = 0.02

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func toyBench(t *testing.T, workload string, traced bool) *bench {
	t.Helper()
	return newBench(workload, 7, 300*time.Millisecond, traced, toyScale, t.TempDir(), io.Discard)
}

// runToy runs a toy-size workload and returns its printed result line.
func runToy(t *testing.T, b *bench) result {
	t.Helper()
	res, err := b.execute()
	if err != nil {
		t.Fatalf("%s: %v", b.workload, err)
	}
	var out bytes.Buffer
	if code := printResult(&out, io.Discard, b, res); code != 0 {
		t.Fatalf("%s: printResult exit %d", b.workload, code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", b.workload, err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil ||
		raw["metrics"] == nil {
		t.Fatalf("%s: last line keys %v, want correct, attempted, failed, metrics", b.workload, raw)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEmitsEveryMetric runs each workload of BENCHMARK.json at toy
// size in both modes and requires every metric it names, with its
// unit, and a correct run with no failed checks. It also counts the
// server's in-flight requests, which must stay within the client cap.
func TestEmitsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			b := toyBench(t, w.Name, traced)
			var inflight, peak atomic.Int64
			b.wrap = func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
					n := inflight.Add(1)
					defer inflight.Add(-1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					h.ServeHTTP(rw, r)
				})
			}
			r := runToy(t, b)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, failed %d of %d", w.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			if p := peak.Load(); p > int64(b.clients) {
				t.Errorf("%s: %d requests in flight, cap %d", w.Name, p, b.clients)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestChecksCatchFaults injects a wrong ranking and a 500 into the
// served responses, and perturbs solver output, and requires the
// correctness checks to count each.
func TestChecksCatchFaults(t *testing.T) {
	swapTop := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/top" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var views []map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &views); err == nil && len(views) > 1 {
				views[0]["key"], views[1]["key"] = views[1]["key"], views[0]["key"]
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			_ = json.NewEncoder(w).Encode(views)
		})
	}
	fail500 := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/article" {
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	for name, wrap := range map[string]func(http.Handler) http.Handler{
		"wrong ranking": swapTop, "500": fail500,
	} {
		b := toyBench(t, "serve-read", false)
		b.wrap = wrap
		r := runToy(t, b)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: correct %v with %d failed checks, want the checks to trip", name, r.Correct, r.Failed)
		}
	}

	good := &core.Scores{Importance: []float64{1, 0.5}, RawPrestige: []float64{0.6, 0.4},
		Hetero: []float64{0.3, 0.7}}
	good.PrestigeStats.Converged, good.HeteroStats.Converged = true, true
	if err := checkScores(good); err != nil {
		t.Fatalf("valid scores rejected: %v", err)
	}
	bad := *good
	bad.Importance = []float64{math.NaN(), 0.5}
	if checkScores(&bad) == nil {
		t.Error("NaN importance passed")
	}
	bad = *good
	bad.HeteroStats.Converged = false
	if checkScores(&bad) == nil {
		t.Error("unconverged walk passed")
	}
	if sameBits(good.Importance, []float64{1, math.Nextafter(0.5, 1)}) == nil {
		t.Error("a one-ulp change passed the bit-identity check")
	}
	for body, what := range map[string]string{
		`{"version":3,"new_citations":1000}`:                  "a version jump of two",
		`{"version":2,"new_citations":999}`:                   "a lost citation",
		`{"version":2,"new_citations":1000,"dropped_refs":1}`: "a dropped reference",
	} {
		if checkIngest(response{status: http.StatusOK, body: []byte(body)}, 2, 1000) == nil {
			t.Errorf("%s passed the ingest check", what)
		}
	}
	if checkIngest(response{status: http.StatusOK, body: []byte(`{"version":2,"new_citations":1000}`)}, 2, 1000) != nil {
		t.Error("a valid ingest answer was rejected")
	}
}

// TestIngestChecksCatchFaults injects, after the first delta, a served
// ranking that differs from a cold rank of the ingested corpus, and a
// walk reported unconverged, and requires the ingest checks to count
// each.
func TestIngestChecksCatchFaults(t *testing.T) {
	rewrite := func(path string, edit func(version string, v any) any) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != path {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var v any
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err == nil {
					v = edit(rec.Header().Get("X-Ranking-Version"), v)
				}
				for k, vals := range rec.Header() {
					w.Header()[k] = vals
				}
				_ = json.NewEncoder(w).Encode(v)
			})
		}
	}
	staleTop := rewrite("/top", func(version string, v any) any {
		views, _ := v.([]any)
		if version != "1" && len(views) > 1 {
			a, b := views[0].(map[string]any), views[1].(map[string]any)
			a["key"], b["key"] = b["key"], a["key"]
		}
		return v
	})
	unconverged := rewrite("/stats", func(version string, v any) any {
		if st, ok := v.(map[string]any); ok && version != "1" {
			st["hetero_converged"] = false
		}
		return v
	})
	for name, wrap := range map[string]func(http.Handler) http.Handler{
		"ranking off the cold rank": staleTop, "unconverged walk": unconverged,
	} {
		b := toyBench(t, "ingest", false)
		b.wrap = wrap
		r := runToy(t, b)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: correct %v with %d failed checks, want the checks to trip", name, r.Correct, r.Failed)
		}
	}
}

// TestSeedFixesInputs requires one seed to yield identical inputs and
// another seed different ones.
func TestSeedFixesInputs(t *testing.T) {
	gen := func(seed int64) (*inputs, []byte, []string) {
		in, err := makeInputs(t.TempDir(), 3000, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(in.path)
		if err != nil {
			t.Fatal(err)
		}
		m := newMixer(&in.keys, seed, 0)
		var paths []string
		for i := 0; i < 50; i++ {
			paths = append(paths, m.cheap().path, m.related().path)
		}
		return in, file, paths
	}
	a, fa, pa := gen(3)
	b, fb, pb := gen(3)
	if !bytes.Equal(fa, fb) || !equalBatches(a.deltas, b.deltas) || strings.Join(pa, " ") != strings.Join(pb, " ") {
		t.Error("one seed gave different corpus files, deltas or requests")
	}
	for i := range a.futureCites {
		if a.futureCites[i] != b.futureCites[i] {
			t.Fatal("one seed gave different future citations")
		}
	}
	c, fc, _ := gen(4)
	if bytes.Equal(fa, fc) || equalBatches(a.deltas, c.deltas) {
		t.Error("two seeds gave the same inputs")
	}
}

func equalBatches(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
