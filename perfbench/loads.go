package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/rank"
	"scholarrank/internal/serve"
)

// Open-loop settings of serve-related. A quarter of the arrivals are
// /related (every relatedEvery-th). The /related arrival rate is
// relatedLoad of relatedCapacity, the /related requests per second a
// 100k-article server completed under a closed loop of two clients
// sending only uniform-seed /related (2-core AMD EPYC, Go 1.24, mean
// walk ~190 ms with both in flight): busy enough that walks queue
// behind each other and cheap reads wait, far enough from saturation
// that the queue stays bounded. Arrivals later than lateLimitMS past
// their due time mean the generator, not the server, is behind.
const (
	relatedCapacity = 10.5
	relatedLoad     = 0.4
	relatedEvery    = 4
	arrivalRate     = relatedCapacity * relatedLoad * relatedEvery
	lateLimitMS     = 25.0
)

// relatedSeries are the /metrics series of the server's own handling
// time of /related requests.
const (
	relatedSum   = `http_request_duration_seconds_sum{route="/related"}`
	relatedCount = `http_request_duration_seconds_count{route="/related"}`
)

// finalTol bounds how far the final generation's importance may lie
// from a cold rank of the same corpus: the solver's L1 convergence
// threshold.
const finalTol = 1e-9

// sample is one timed request: its latency, its Server-Timing split
// when traced, and for the open loop the wait before it was sent.
type sample struct {
	route  string
	lat    float64 // ms, from send (closed loop) or due time (open loop)
	wait   float64 // ms from due to send, open loop only
	late   float64 // ms of generator lateness, open loop only
	traced bool
	timing map[string]float64
}

// warmup sends one of each cheap route once, untimed, so lazily built
// key lookups exist before timing starts.
func (b *bench) warmup(r *rig, c *checker) {
	m := newMixer(&b.in.keys, b.seed, -1)
	for i := 0; i < 16; i++ {
		req := m.cheap()
		b.check(c.check(req, r.get(req.path, false), true))
	}
}

// readClients is serve-read's closed-loop client count. One client
// calls the handler on its own goroutine, so a read runs on one core
// from start to end. Two clients on a 2-core guest also measured
// requests and cache lines handed between the cores, a cost that varied
// from run to run: the IQR of the median read over the same seeds was
// two to three times that of one client.
const readClients = 1

// runServeRead drives a closed loop of cheap reads straight into the
// server's handler. At a few tens of microseconds per read the loopback
// round trip and the goroutine hand-offs it forces (each may wake an
// idle core) cost as much as the handler, and their cost tracks the
// host's load, not the program's.
func runServeRead(b *bench) error {
	r, c, err := b.setupServer(true)
	if err != nil {
		return err
	}
	defer r.close()
	r.inProcess = true
	b.warmup(r, c)
	per := make([][]sample, min(readClients, b.clients))
	start := time.Now()
	deadline := start.Add(b.dur)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := newMixer(&b.in.keys, b.seed, w)
			for i := 0; time.Now().Before(deadline); i++ {
				req := m.cheap()
				tr := b.traced && i%2 == 0
				res := r.get(req.path, tr)
				b.check(c.check(req, res, i%8 == 0))
				per[w] = append(per[w], sample{route: req.route, lat: ms(res.elapsed), traced: tr, timing: res.timing})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	all := latencies(flatten(per), nil)
	b.e2e["op_p50_ms"] = median(all)
	b.e2e["op_tail_ms"] = quantile(all, 0.9)
	b.e2e["ops_per_s"] = float64(len(all)) / elapsed
	b.setExtra("read_rps", float64(len(all))/elapsed)
	b.setExtra("read_p50_ms", median(all))
	b.setExtra("read_p90_ms", quantile(all, 0.9))
	b.setExtra("read_p99_ms", quantile(all, 0.99))
	if b.traced {
		b.recordRequests(flatten(per), "")
	}
	return b.scrapeServer(r)
}

// runServeRelated drives an open loop at arrivalRate from nproc
// senders; every relatedEvery-th arrival is a /related walk from a
// uniformly drawn seed, the rest are cheap reads. Latency runs from
// each request's due time. ops_per_s is the server's /related
// capacity: requests served per second of its own handling time, from
// /metrics, which the fixed arrival rate does not pin.
func runServeRelated(b *bench) error {
	r, c, err := b.setupServer(true)
	if err != nil {
		return err
	}
	defer r.close()
	b.warmup(r, c)
	before, err := r.scrape(relatedSum, relatedCount)
	if err != nil {
		return err
	}
	interval := time.Duration(math.Round(float64(time.Second) / arrivalRate))
	n := int(b.dur / interval)
	m := newMixer(&b.in.keys, b.seed, 0)
	reqs := make([]request, n)
	for i := range reqs {
		if i%relatedEvery == 0 {
			reqs[i] = m.related()
		} else {
			reqs[i] = m.cheap()
		}
	}
	samples := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < b.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				free := time.Now()
				time.Sleep(time.Until(due))
				send := time.Now()
				tr := b.traced && (i/relatedEvery)%2 == 0 // every other /related
				res := r.get(reqs[i].path, tr)
				b.check(c.check(reqs[i], res, true))
				if free.Before(due) {
					free = due
				}
				samples[i] = sample{route: reqs[i].route, traced: tr, timing: res.timing,
					lat:  ms(send.Add(res.elapsed).Sub(due)),
					wait: ms(send.Sub(due)), late: ms(send.Sub(free))}
			}
		}()
	}
	wg.Wait()
	after, err := r.scrape(relatedSum, relatedCount)
	if err != nil {
		return err
	}
	served, busy := after[relatedCount]-before[relatedCount], after[relatedSum]-before[relatedSum]
	rel := latencies(samples, func(route string) bool { return route == "/related" })
	reads := latencies(samples, func(route string) bool { return route != "/related" })
	if len(rel) == 0 || busy <= 0 {
		return fmt.Errorf("no /related request served in %v", b.dur)
	}
	var late []float64
	for _, s := range samples {
		late = append(late, s.late)
	}
	lateP99 := quantile(late, 0.99)
	if lateP99 > lateLimitMS {
		b.valid = fmt.Sprintf("open-loop sender p99 lateness %.1f ms exceeds %.0f ms", lateP99, lateLimitMS)
	}
	b.e2e["op_p50_ms"] = median(rel)
	b.e2e["op_tail_ms"] = quantile(rel, 0.9)
	b.e2e["ops_per_s"] = served / busy
	b.setExtra("related_p50_ms", median(rel))
	b.setExtra("related_p90_ms", quantile(rel, 0.9))
	b.setExtra("read_p50_ms", median(reads))
	b.setExtra("read_p95_ms", quantile(reads, 0.95))
	b.setExtra("late_p99_ms", lateP99)
	if b.traced {
		b.recordRequests(samples, "/related")
		l := b.layers
		l.set("bench.late_p99_ms", lateP99)
		l.set("bench.side_read_p50_ms", median(reads))
		l.set("bench.side_read_p95_ms", quantile(reads, 0.95))
		l.set("bench.side_read_p99_ms", quantile(reads, 0.99))
	}
	return b.scrapeServer(r)
}

// runIngest POSTs the seeded delta sequence one batch after another
// while a second client reads in a closed loop. Each delta's op time
// runs from its POST to a read that sees the new ranking version;
// ops_per_s is deltas per second of that time. After each delta both
// walks must have converged, and after the last the served ranking
// must match a cold rank of the same corpus.
func runIngest(b *bench) error {
	r, c, err := b.setupServer(false)
	if err != nil {
		return err
	}
	defer r.close()
	b.warmup(r, c)
	stop := make(chan struct{})
	var reads []sample
	var wg sync.WaitGroup
	if b.clients > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := newMixer(&b.in.keys, b.seed, 1)
			var seen int64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := m.cheap()
				res := r.get(req.path, false)
				err := c.check(req, res, i%8 == 0)
				if err == nil && res.version < seen {
					err = fmt.Errorf("%s: version %d after %d", req.path, res.version, seen)
				}
				seen = max(seen, res.version)
				b.check(err)
				reads = append(reads, sample{route: req.route, lat: ms(res.elapsed)})
			}
		}()
	}

	var visible, traced, untraced []float64
	version := int64(1)
	start := time.Now()
	for i, d := range b.in.deltas {
		if time.Since(start) >= b.dur {
			break
		}
		tr := b.traced && i%2 == 0
		t0 := time.Now()
		res := r.do(http.MethodPost, "/admin/ingest", d, tr)
		err := checkIngest(res, version+1, b.in.deltaCites[i])
		b.check(err)
		if err != nil {
			break
		}
		version++
		var seen int64
		for tries := 0; tries < 100 && seen != version; tries++ {
			seen = r.get("/top?k=10", false).version
		}
		b.check(visibleErr(seen, version))
		v := ms(time.Since(t0))
		visible = append(visible, v)
		b.check(r.checkConverged())
		if !tr {
			untraced = append(untraced, v)
			continue
		}
		traced = append(traced, v)
		l, t := b.layers, res.timing
		l.add("bench.op_ms", v)
		l.add("serve.server_ms", t["total"])
		l.add("serve.client_overhead_ms", v-t["total"])
		l.add("serve.ingest_apply_ms", t["ingest.apply"])
		l.add("serve.solve_ms", t["solve"])
		l.add("serve.generation_build_ms", t["generation.build"])
		l.add("serve.swap_ms", t["swap"])
	}
	close(stop)
	wg.Wait()
	if len(visible) == 0 {
		return fmt.Errorf("no delta ingested")
	}
	b.check(b.checkFinal(r, len(visible)))
	side := latencies(reads, nil)
	b.e2e["op_p50_ms"] = median(visible)
	b.e2e["op_tail_ms"] = quantile(visible, 0.75)
	b.e2e["ops_per_s"] = 1000 / mean(visible)
	b.setExtra("ingest_visible_s", median(visible)/1000)
	b.setExtra("ingest_read_p99_ms", quantile(side, 0.99))
	b.setExtra("deltas_ingested", float64(len(visible)))
	if b.traced {
		l := b.layers
		l.traceOverhead(traced, untraced)
		l.set("bench.side_read_p50_ms", median(side))
		l.set("bench.side_read_p95_ms", quantile(side, 0.95))
		l.set("bench.side_read_p99_ms", quantile(side, 0.99))
		l.set("gap.ingest_over_boot", median(visible)/(1000*b.e2e["setup_s"]))
		if err := b.replayIngest(len(visible)); err != nil {
			return err
		}
		covered := 0.0
		for _, name := range []string{"serve.client_overhead_ms", "serve.ingest_apply_ms", "serve.solve_ms",
			"serve.generation_build_ms", "serve.swap_ms", "corpus.thaw_ms", "corpus.freeze_ms",
			"hetnet.grow_ms", "core.engine_ms"} {
			covered += l.value(name)
		}
		l.set("unattributed_ms", l.value("bench.op_ms")-covered)
	}
	return b.scrapeServer(r)
}

// checkIngest requires an ingest answer that advanced the version to
// want and took in every citation of the batch, dropping none.
func checkIngest(res response, want int64, cites int) error {
	if res.err != nil || res.status != http.StatusOK {
		return fmt.Errorf("ingest: status %d, %v: %s", res.status, res.err, bytes.TrimSpace(res.body))
	}
	var out struct {
		Version      int64 `json:"version"`
		Noop         bool  `json:"noop"`
		NewCitations int   `json:"new_citations"`
		DroppedRefs  int   `json:"dropped_refs"`
	}
	if err := json.Unmarshal(res.body, &out); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if out.Noop || out.Version != want {
		return fmt.Errorf("ingest: version %d (noop %v), want %d", out.Version, out.Noop, want)
	}
	if out.NewCitations != cites || out.DroppedRefs != 0 {
		return fmt.Errorf("ingest: %d new citations and %d dropped refs, batch has %d citations",
			out.NewCitations, out.DroppedRefs, cites)
	}
	return nil
}

// checkConverged requires both walks of the served ranking to have
// converged, as /stats reports them.
func (r *rig) checkConverged() error {
	res := r.get("/stats", false)
	if res.err != nil || res.status != http.StatusOK {
		return fmt.Errorf("/stats: status %d, %v", res.status, res.err)
	}
	var st struct {
		Prestige bool `json:"prestige_converged"`
		Hetero   bool `json:"hetero_converged"`
	}
	if err := json.Unmarshal(res.body, &st); err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	if !st.Prestige || !st.Hetero {
		return fmt.Errorf("generation %d: walk not converged: prestige %v, hetero %v",
			res.version, st.Prestige, st.Hetero)
	}
	return nil
}

// checkFinal folds the n ingested deltas into the served corpus file
// on the benchmark's side — Thaw, ApplyDelta, Freeze — ranks the
// result cold, and requires the server's current /top page to match
// that rank: the version after n deltas, and at each rank an article
// whose cold importance, like the cold importance held at that rank,
// lies within finalTol of the served one.
func (b *bench) checkFinal(r *rig, n int) error {
	store, err := corpus.OpenMapped(b.in.path)
	if err != nil {
		return err
	}
	defer store.Close()
	bld := store.Thaw()
	for _, d := range b.in.deltas[:n] {
		if _, err := live.ApplyDelta(bld, bytes.NewReader(d)); err != nil {
			return err
		}
	}
	next := bld.Freeze()
	eng := core.NewEngine(hetnet.Build(next))
	sc, err := eng.RankScorer(core.DefaultScorer, nil, core.DefaultOptions())
	eng.Close()
	if err != nil {
		return err
	}
	res := r.get(fmt.Sprintf("/top?k=%d", topK), false)
	if res.err != nil || res.status != http.StatusOK {
		return fmt.Errorf("final /top: status %d, %v", res.status, res.err)
	}
	if want := int64(n) + 1; res.version != want {
		return fmt.Errorf("final /top: version %d, want %d", res.version, want)
	}
	var views []serve.ArticleView
	if err := json.Unmarshal(res.body, &views); err != nil {
		return fmt.Errorf("final /top: %w", err)
	}
	order := rank.TopK(sc.Importance, topK)
	if len(views) != len(order) {
		return fmt.Errorf("final /top: %d results, want %d", len(views), len(order))
	}
	for j, v := range views {
		id, ok := next.ArticleByKey(v.Key)
		if !ok {
			return fmt.Errorf("final /top: unknown article %q", v.Key)
		}
		if math.Abs(v.Importance-sc.Importance[id]) > finalTol ||
			math.Abs(v.Importance-sc.Importance[order[j]]) > finalTol {
			return fmt.Errorf("final /top rank %d: %s importance %v, cold rank gives it %v and %v at that rank",
				j+1, v.Key, v.Importance, sc.Importance[id], sc.Importance[order[j]])
		}
	}
	return nil
}

func visibleErr(seen, want int64) error {
	if seen != want {
		return fmt.Errorf("reads see version %d after ingest, want %d", seen, want)
	}
	return nil
}

// replayIngest re-applies the first deltas (at most four, and no more
// than were ingested) through the program's public pieces — thaw,
// apply, freeze, grow, engine, warm-started solve and the generation
// build — timing each layer the server's spans do not cover.
func (b *bench) replayIngest(n int) error {
	store, err := corpus.OpenMapped(b.in.path)
	if err != nil {
		return err
	}
	defer store.Close()
	net := hetnet.Build(store)
	eng := core.NewEngine(net)
	sc, err := eng.RankScorer(core.DefaultScorer, nil, core.DefaultOptions())
	eng.Close()
	if err != nil {
		return err
	}
	l := b.layers
	cur := store
	for _, d := range b.in.deltas[:min(n, 4)] {
		t := time.Now()
		bld := cur.Thaw()
		l.add("corpus.thaw_ms", ms(time.Since(t)))
		t = time.Now()
		if _, err := live.ApplyDelta(bld, bytes.NewReader(d)); err != nil {
			return err
		}
		l.add("live.apply_ms", ms(time.Since(t)))
		t = time.Now()
		next := bld.Freeze()
		l.add("corpus.freeze_ms", ms(time.Since(t)))
		t = time.Now()
		grown := hetnet.Grow(net, next)
		l.add("hetnet.grow_ms", ms(time.Since(t)))
		t = time.Now()
		eng := core.NewEngine(grown)
		l.add("core.engine_ms", ms(time.Since(t)))
		opts := core.DefaultOptions()
		opts.InitialScores = core.FromScores(sc, next.NumArticles())
		t = time.Now()
		warm, err := eng.RankScorer(core.DefaultScorer, nil, opts)
		eng.Close()
		if err != nil {
			return err
		}
		l.addSolve(time.Since(t), warm)
		if err := recordGeneration(l, next, grown, warm); err != nil {
			return err
		}
		cur, net, sc = next, grown, warm
	}
	return nil
}

// recordRequests attributes the traced requests of route (all routes
// when empty) to the client, the server's spans and the server time no
// span covers.
func (b *bench) recordRequests(samples []sample, route string) {
	l := b.layers
	var traced, untraced []float64
	for _, s := range samples {
		if route != "" && s.route != route {
			continue
		}
		if !s.traced {
			untraced = append(untraced, s.lat)
			continue
		}
		traced = append(traced, s.lat)
		t := s.timing
		spans := t["queue"] + t["cache"] + t["index"] + t["corpus"] + t["walk"]
		l.add("bench.op_ms", s.lat)
		l.add("bench.send_wait_ms", s.wait)
		l.add("serve.server_ms", t["total"])
		l.add("serve.client_overhead_ms", s.lat-s.wait-t["total"])
		l.add("serve.queue_ms", t["queue"])
		l.add("serve.cache_ms", t["cache"])
		l.add("query.index_ms", t["index"])
		l.add("serve.corpus_ms", t["corpus"])
		l.add("rank.related_walk_ms", t["walk"])
		l.add("unattributed_ms", t["total"]-spans)
	}
	l.traceOverhead(traced, untraced)
}

// scrapeServer reads the response cache's hit ratio and the shed
// count from /metrics.
func (b *bench) scrapeServer(r *rig) error {
	const hits, misses, shed = "sarserve_query_cache_hits_total", "sarserve_query_cache_misses_total",
		"sarserve_query_shed_total"
	m, err := r.scrape(hits, misses, shed)
	if err != nil {
		return err
	}
	ratio := 0.0
	if tot := m[hits] + m[misses]; tot > 0 {
		ratio = m[hits] / tot
	}
	b.setExtra("cache_hit_ratio", ratio)
	b.setExtra("shed", m[shed])
	b.layers.set("query.cache_hit_ratio", ratio)
	b.layers.set("serve.shed", m[shed])
	return nil
}

// latencies returns the latencies of the samples whose route keep
// accepts, or of all samples when keep is nil.
func latencies(samples []sample, keep func(route string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep == nil || keep(s.route) {
			out = append(out, s.lat)
		}
	}
	return out
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
