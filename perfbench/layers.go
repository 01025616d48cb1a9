package main

import (
	"sync"
	"time"

	"scholarrank/internal/core"
)

// perLayer lists the metrics a --trace 1 run reports, on every
// workload; a layer a workload never enters reads 0. Times are means
// per operation of the workload's headline op (per request for the
// Server-Timing spans), so they add up: unattributed_ms is the op's
// time that no covered span explains.
var perLayer = []metricDef{
	{"bench.op_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.late_p99_ms", "ms"},
	{"bench.send_wait_ms", "ms"},
	{"bench.side_read_p50_ms", "ms"},
	{"bench.side_read_p95_ms", "ms"},
	{"bench.side_read_p99_ms", "ms"},
	{"gap.wall_over_walks", "ratio"},
	{"gap.ingest_over_boot", "ratio"},
	{"corpus.open_ms", "ms"},
	{"corpus.thaw_ms", "ms"},
	{"corpus.freeze_ms", "ms"},
	{"live.apply_ms", "ms"},
	{"hetnet.build_ms", "ms"},
	{"hetnet.grow_ms", "ms"},
	{"core.engine_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.prestige_ms", "ms"},
	{"core.prestige_iters", "count"},
	{"core.prestige_sweep_ms", "ms"},
	{"core.hetero_ms", "ms"},
	{"core.hetero_iters", "count"},
	{"core.hetero_sweep_ms", "ms"},
	{"core.extrapolations", "count"},
	{"core.solve_other_ms", "ms"},
	{"sparse.pool_runs", "count"},
	{"sparse.pool_tasks", "count"},
	{"rank.topk_ms", "ms"},
	{"rank.entity_ms", "ms"},
	{"rank.related_build_ms", "ms"},
	{"rank.related_walk_ms", "ms"},
	{"query.build_ms", "ms"},
	{"query.index_ms", "ms"},
	{"query.cache_hit_ratio", "ratio"},
	{"live.fingerprint_ms", "ms"},
	{"serve.server_ms", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.cache_ms", "ms"},
	{"serve.corpus_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.boot_solve_ms", "ms"},
	{"serve.ingest_apply_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.generation_build_ms", "ms"},
	{"serve.swap_ms", "ms"},
}

// layerSet collects per-layer samples from any goroutine; a layer's
// value is the mean of its samples.
type layerSet struct {
	mu      sync.Mutex
	samples map[string][]float64
}

func newLayerSet() *layerSet { return &layerSet{samples: make(map[string][]float64)} }

func (l *layerSet) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// set replaces a layer's samples with one value.
func (l *layerSet) set(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = []float64{v}
	l.mu.Unlock()
}

func (l *layerSet) value(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return mean(l.samples[name])
}

// addSolve records one solve's phase split: the call's wall time, each
// damped walk's time, sweeps and cost per sweep, accepted
// extrapolations, the solve time outside both walks, and the worker
// pool's kernel runs and tasks.
func (l *layerSet) addSolve(solve time.Duration, sc *core.Scores) {
	p, h := sc.PrestigeStats, sc.HeteroStats
	l.add("core.solve_ms", ms(solve))
	l.add("core.prestige_ms", ms(p.Elapsed))
	l.add("core.prestige_iters", float64(p.Iterations))
	l.add("core.prestige_sweep_ms", ms(p.Elapsed)/float64(max(1, p.Iterations)))
	l.add("core.hetero_ms", ms(h.Elapsed))
	l.add("core.hetero_iters", float64(h.Iterations))
	l.add("core.hetero_sweep_ms", ms(h.Elapsed)/float64(max(1, h.Iterations)))
	l.add("core.extrapolations", float64(p.Extrapolations+h.Extrapolations))
	l.add("core.solve_other_ms", ms(solve-p.Elapsed-h.Elapsed))
	l.add("sparse.pool_runs", float64(sc.Pool.Runs))
	l.add("sparse.pool_tasks", float64(sc.Pool.Tasks))
}

// traceOverhead reports the cost of the benchmark's own --trace 1
// instrumentation (layer laps, Server-Timing parsing): how much slower
// the traced half of a run's operations was than the untraced half, in
// percent of the untraced median. The server traces every request in
// both halves, so its own tracing cost is inside both and not in this
// figure.
func (l *layerSet) traceOverhead(traced, untraced []float64) {
	if len(traced) > 0 && len(untraced) > 0 {
		l.set("bench.trace_overhead_pct", 100*(median(traced)-median(untraced))/median(untraced))
	}
}
