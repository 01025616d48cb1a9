package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/eval"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/rank"
)

// topK is the cut every ranking is read at.
const topK = 100

// coldRanking is one cold rank of a corpus file and, when traced, the
// wall time of each layer call.
type coldRanking struct {
	store                            *corpus.Store   // valid until release when held
	net                              *hetnet.Network // likewise
	scores                           *core.Scores
	top                              []int
	total                            time.Duration
	open, build, engine, solve, topk time.Duration
}

// coldRank opens the SCORP file and ranks it from nothing: the path a
// ranking job takes from corpus file to top-K. With hold set the
// corpus, network and engine stay alive until release is called (for
// a heap reading); otherwise they are released before it returns.
func coldRank(path string, traced, hold bool) (r *coldRanking, release func(), err error) {
	r = &coldRanking{}
	var laps [5]time.Time
	lap := func(i int) {
		if traced {
			laps[i] = time.Now()
		}
	}
	t0 := time.Now()
	store, err := corpus.OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	lap(0)
	net := hetnet.Build(store)
	lap(1)
	eng := core.NewEngine(net)
	lap(2)
	release = func() {
		eng.Close()
		_ = store.Close()
	}
	if r.scores, err = eng.RankScorer(core.DefaultScorer, nil, core.DefaultOptions()); err != nil {
		release()
		return nil, nil, fmt.Errorf("rank: %w", err)
	}
	lap(3)
	r.top = rank.TopK(r.scores.Importance, topK)
	lap(4)
	r.store, r.net = store, net
	if !hold {
		release()
		release = func() {}
		r.store, r.net = nil, nil
	}
	r.total = time.Since(t0)
	if traced {
		r.open, r.build, r.engine = laps[0].Sub(t0), laps[1].Sub(laps[0]), laps[2].Sub(laps[1])
		r.solve, r.topk = laps[3].Sub(laps[2]), laps[4].Sub(laps[3])
	}
	return r, release, nil
}

// checkScores verifies a ranking's invariants: every importance finite
// and in [0, 1], both walk fixed points probability vectors, both walks
// converged.
func checkScores(sc *core.Scores) error {
	for i, v := range sc.Importance {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("importance[%d] = %v outside [0, 1]", i, v)
		}
	}
	for name, vec := range map[string][]float64{"prestige": sc.RawPrestige, "hetero": sc.Hetero} {
		var s float64
		for _, v := range vec {
			s += v
		}
		if math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("%s walk mass %v, want 1", name, s)
		}
	}
	if !sc.PrestigeStats.Converged || !sc.HeteroStats.Converged {
		return fmt.Errorf("walk not converged: prestige %v, hetero %v",
			sc.PrestigeStats.Converged, sc.HeteroStats.Converged)
	}
	return nil
}

// sameBits reports whether two rankings are bit-identical.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("importance length %d, want %d", len(b), len(a))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("importance[%d] = %v, first rank had %v", i, b[i], a[i])
		}
	}
	return nil
}

// qualitySeed generates the reference holdout that quality is graded
// on, whatever --seed is: every run, and the runs before and after a
// change, grade the same corpus, so the figures are exact and a small
// loss of quality shows. Its size is the server workloads' corpus.
const qualitySeed = 1

// grade scores a ranking against the articles' future citations:
// NDCG@100 and Kendall τ.
func grade(importance, futureCites []float64) (ndcg, tau float64, err error) {
	if ndcg, err = eval.NDCG(importance, futureCites, topK); err != nil {
		return 0, 0, err
	}
	tau, err = eval.KendallTau(importance, futureCites)
	return ndcg, tau, err
}

// gradeSeed reports, ungated, the quality of the ranking of this
// seed's own corpus.
func (b *bench) gradeSeed(importance []float64) error {
	ndcg, tau, err := grade(importance, b.in.futureCites)
	if err != nil {
		return err
	}
	b.setExtra("seed_ndcg100", ndcg)
	b.setExtra("seed_tau", tau)
	return nil
}

// gradeReference generates the reference holdout, ranks its train
// side cold, checks the ranking and grades it: quality_ndcg100 and
// quality_tau. It runs after the workload, outside every timed part.
func (b *bench) gradeReference() error {
	dir := filepath.Join(b.dir, "quality")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	in, err := makeInputs(dir, max(2000, int(serveArticles*b.scale)), qualitySeed, false)
	if err != nil {
		return err
	}
	r, _, err := coldRank(in.path, false, false)
	if err != nil {
		return err
	}
	b.check(checkScores(r.scores))
	b.e2e["quality_ndcg100"], b.e2e["quality_tau"], err = grade(r.scores.Importance, in.futureCites)
	return err
}

// runRankCold measures cold ranks of the ~200k-article train corpus.
// Set-up is the warm-up ranks; every timed rank must reproduce the
// first one bit for bit.
func runRankCold(b *bench) error {
	var ref *core.Scores
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, release, err := coldRank(b.in.path, false, i == setupReps-1)
		if err != nil {
			return err
		}
		setups = append(setups, r.total.Seconds())
		if ref == nil {
			ref = r.scores
			b.check(checkScores(ref))
		} else {
			b.check(sameBits(ref.Importance, r.scores.Importance))
		}
		if i == setupReps-1 {
			b.e2e["heap_mb"] = heapMB()
			release()
		}
	}
	b.e2e["setup_s"] = median(setups)
	if err := b.gradeSeed(ref.Importance); err != nil {
		return err
	}

	var all, traced, untraced []float64
	start := time.Now()
	for i := 0; time.Since(start) < b.dur; i++ {
		tr := b.traced && i%2 == 0
		r, _, err := coldRank(b.in.path, tr, false)
		if err != nil {
			b.check(err)
			continue
		}
		b.check(sameBits(ref.Importance, r.scores.Importance))
		b.check(checkScores(r.scores))
		t := ms(r.total)
		all = append(all, t)
		if !tr {
			untraced = append(untraced, t)
			continue
		}
		traced = append(traced, t)
		l := b.layers
		l.add("bench.op_ms", t)
		l.add("corpus.open_ms", ms(r.open))
		l.add("hetnet.build_ms", ms(r.build))
		l.add("core.engine_ms", ms(r.engine))
		l.addSolve(r.solve, r.scores)
		l.add("rank.topk_ms", ms(r.topk))
		l.add("unattributed_ms", t-ms(r.open+r.build+r.engine+r.solve+r.topk))
		walks := r.scores.PrestigeStats.Elapsed + r.scores.HeteroStats.Elapsed
		l.add("gap.wall_over_walks", t/ms(walks))
	}
	elapsed := time.Since(start).Seconds()
	b.e2e["op_p50_ms"] = median(all)
	b.e2e["op_tail_ms"] = quantile(all, 0.75)
	b.e2e["ops_per_s"] = float64(len(all)) / elapsed
	b.setExtra("rank_s", median(all)/1000)
	b.layers.traceOverhead(traced, untraced)
	return nil
}
