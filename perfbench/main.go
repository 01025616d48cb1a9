// Command perfbench is the ranking pipeline's benchmark. It drives the
// program only through its public packages and its HTTP handler, and
// runs one of four workloads per invocation:
//
//	rank-cold      corpus file → hetnet → engine → solve → top-K, repeated
//	serve-read     closed-loop cheap reads against an in-process server
//	serve-related  open-loop mix with ~a quarter cold /related walks
//	ingest         1k-citation deltas POSTed beside a stream of reads
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench --workload rank-cold --seed 1 --seconds 20 --trace 0
//
// Every input is generated from --seed. Each workload checks the
// program's outputs while it measures; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer attribution (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps each workload name to its run function and the full corpus
// size it generates at scale 1.
var workloads = map[string]struct {
	run      func(*bench) error
	articles int
	deltas   bool
}{
	"rank-cold":     {runRankCold, rankArticles, false},
	"serve-read":    {runServeRead, serveArticles, false},
	"serve-related": {runServeRelated, serveArticles, false},
	"ingest":        {runIngest, serveArticles, true},
}

// endToEnd lists the metrics a --trace 0 run reports, on every
// workload. "op" is the workload's headline operation: a cold rank, a
// read, a /related request (timed from its due time) or a delta's
// POST-to-visible interval. op_tail_ms is the op's highest percentile
// with about ten samples beyond it in a 20-second run — p75 of cold
// ranks and deltas, p90 of /related — except on reads: there it is p90,
// because the read p99 (reported as read_p99_ms) moved across seeds
// about twice as much as the median and p90 did.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"quality_ndcg100", "score"},
	{"quality_tau", "score"},
}

type metricDef struct{ name, unit string }

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// bench is one run of one workload: its settings, its inputs and
// everything it measured.
type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	scale    float64
	dir      string // scratch directory for generated files
	clients  int    // client goroutine and connection cap (nproc)
	// wrap, when set, wraps the server's handler — the self-test's
	// fault injection.
	wrap func(http.Handler) http.Handler
	log  io.Writer

	in    *inputs
	genS  float64
	valid string // non-empty: why the run's figures are not valid

	attempted atomic.Int64
	failed    atomic.Int64
	failLog   atomic.Int64

	e2e    map[string]float64
	layers *layerSet
	extra  map[string]float64 // reported, not gated
	mu     sync.Mutex         // guards extra
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "rank-cold, serve-read, serve-related or ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer attribution instead of end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(build, "data-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, 1, dir, stderr)
	res, err := b.execute()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return printResult(stdout, stderr, b, res)
}

func newBench(workload string, seed int64, dur time.Duration, traced bool, scale float64,
	dir string, log io.Writer) *bench {
	return &bench{
		workload: workload, seed: seed, dur: dur, traced: traced, scale: scale, dir: dir,
		clients: min(2, runtime.NumCPU()), log: log,
		e2e: make(map[string]float64), layers: newLayerSet(), extra: make(map[string]float64),
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute generates the inputs, runs the workload and assembles the
// result for the requested mode.
func (b *bench) execute() (*result, error) {
	w := workloads[b.workload]
	n := max(2000, int(float64(w.articles)*b.scale))
	t := time.Now()
	in, err := makeInputs(b.dir, n, b.seed, w.deltas)
	if err != nil {
		return nil, err
	}
	b.in, b.genS = in, time.Since(t).Seconds()
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	if !b.traced {
		if err := b.gradeReference(); err != nil {
			return nil, fmt.Errorf("quality: %w", err)
		}
	}
	res := &result{
		Correct:   b.failed.Load() == 0 && b.valid == "",
		Attempted: max(1, b.attempted.Load()),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]metric),
	}
	if b.traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{b.layers.value(d.name), d.unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := b.e2e[d.name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s not measured", b.workload, d.name)
			}
			res.Metrics[d.name] = metric{v, d.unit}
		}
	}
	return res, nil
}

// printResult writes the run's stamp, the reported-but-ungated
// figures, and last the result line.
func printResult(stdout, stderr io.Writer, b *bench, res *result) int {
	if b.valid != "" {
		fmt.Fprintln(stderr, "perfbench: run invalid:", b.valid)
	}
	b.setExtra("error_share", float64(res.Failed)/float64(res.Attempted))
	b.setExtra("input_gen_s", b.genS)
	enc := json.NewEncoder(stdout)
	for _, line := range []any{
		map[string]any{"stamp": b.stamp()},
		map[string]any{"reported": b.extra},
		res,
	} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// stamp records where and on what the run was taken.
func (b *bench) stamp() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.dur.Seconds(), "trace": b.traced,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "clients": b.clients,
		"articles": b.in.articles, "citations": b.in.citations, "deltas": len(b.in.deltas),
		"input_gen_s": b.genS,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where there is
// one.
func cpuModel() string {
	data, err := os.ReadFile(filepath.Join("/proc", "cpuinfo"))
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// check counts one attempted operation and, when err is non-nil, one
// failure; the first few failures are logged.
func (b *bench) check(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	if b.failLog.Add(1) <= 10 {
		fmt.Fprintln(b.log, "perfbench: check failed:", err)
	}
}

func (b *bench) setExtra(name string, v float64) {
	b.mu.Lock()
	b.extra[name] = v
	b.mu.Unlock()
}

// heapMB forces two collections and returns the live heap in MiB.
// Objects cached in a sync.Pool survive the first collection as its
// victim cache; whether one ran since they were last used is a matter
// of timing, so a single collection reads tens of MB more on some runs.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
