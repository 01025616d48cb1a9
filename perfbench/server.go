package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"scholarrank/internal/core"
	"scholarrank/internal/corpus"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/live"
	"scholarrank/internal/query"
	"scholarrank/internal/rank"
	"scholarrank/internal/serve"
)

// rig is one in-process server behind a real HTTP listener on the
// loopback interface, with a client capped at the benchmark's
// connection limit.
type rig struct {
	store     *corpus.Store
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	handler   http.Handler
	// inProcess hands requests straight to handler on the calling
	// goroutine instead of sending them over the listener.
	inProcess bool
}

// boot opens the corpus file, ranks it inside a server configured as
// the load harness's smoke server (admission at twice GOMAXPROCS),
// listens, and waits for the first 200 from /top. It returns the rig,
// the boot time and the first /top body.
func (b *bench) boot() (*rig, time.Duration, []byte, error) {
	t0 := time.Now()
	store, err := corpus.OpenMapped(b.in.path)
	if err != nil {
		return nil, 0, nil, err
	}
	srv, err := serve.NewWithConfig(store, serve.Config{
		Options:     core.DefaultOptions(),
		MaxInflight: 2 * runtime.GOMAXPROCS(0),
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		_ = store.Close()
		return nil, 0, nil, err
	}
	h := srv.Handler()
	if b.wrap != nil {
		h = b.wrap(h)
	}
	tr := &http.Transport{MaxConnsPerHost: b.clients, MaxIdleConnsPerHost: b.clients,
		DisableCompression: true}
	r := &rig{store: store, srv: srv, ts: httptest.NewServer(h), transport: tr, handler: h,
		client: &http.Client{Transport: tr, Timeout: time.Minute}}
	res := r.get(fmt.Sprintf("/top?k=%d", topK), false)
	if res.err != nil || res.status != http.StatusOK {
		r.close()
		return nil, 0, nil, fmt.Errorf("first /top: status %d, %v", res.status, res.err)
	}
	return r, time.Since(t0), res.body, nil
}

func (r *rig) close() {
	r.ts.Close()
	r.transport.CloseIdleConnections()
	r.srv.Close()
	_ = r.store.Close()
}

// response is one completed request as the client saw it.
type response struct {
	status  int
	version int64
	timing  map[string]float64 // Server-Timing ms by span name, when parsed
	body    []byte
	err     error
	elapsed time.Duration
}

// get issues one request; timed with parseTiming, it also reads the
// Server-Timing breakdown.
func (r *rig) get(path string, parseTiming bool) response {
	return r.do(http.MethodGet, path, nil, parseTiming)
}

func (r *rig) do(method, path string, body []byte, parseTiming bool) response {
	if r.inProcess {
		return r.serve(method, path, body, parseTiming)
	}
	t0 := time.Now()
	var res response
	req, err := http.NewRequest(method, r.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	resp, err := r.client.Do(req)
	if err != nil {
		res.err = err
		res.elapsed = time.Since(t0)
		return res
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.elapsed = time.Since(t0)
	res.status = resp.StatusCode
	res.version, _ = strconv.ParseInt(resp.Header.Get("X-Ranking-Version"), 10, 64)
	if parseTiming {
		res.timing = parseServerTiming(resp.Header.Get("Server-Timing"))
	}
	return res
}

// serve hands one request to the server's handler on the calling
// goroutine and records what it wrote; elapsed is the handler's time.
func (r *rig) serve(method, path string, body []byte, parseTiming bool) response {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	r.handler.ServeHTTP(rec, req)
	res := response{status: rec.Code, body: rec.Body.Bytes(), elapsed: time.Since(t0)}
	res.version, _ = strconv.ParseInt(rec.Header().Get("X-Ranking-Version"), 10, 64)
	if parseTiming {
		res.timing = parseServerTiming(rec.Header().Get("Server-Timing"))
	}
	return res
}

// parseServerTiming reads "name;dur=ms" entries into a map.
func parseServerTiming(h string) map[string]float64 {
	out := make(map[string]float64, 8)
	for _, entry := range strings.Split(h, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok {
			continue
		}
		for _, param := range strings.Split(rest, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "dur="); ok {
				if d, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += d
				}
			}
		}
	}
	return out
}

// scrape reads counters from /metrics.
func (r *rig) scrape(names ...string) (map[string]float64, error) {
	res := r.get("/metrics", false)
	if res.err != nil || res.status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d, %v", res.status, res.err)
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(res.body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, n := range names {
			if name == n {
				out[n], _ = strconv.ParseFloat(strings.TrimSpace(val), 64)
			}
		}
	}
	return out, nil
}

// request is one generated read: its route, path and what the
// checker needs to verify the answer.
type request struct {
	route    string
	path     string
	key      string // /article and /related seed
	k        int
	from, to int // /query year window, 0 when open
}

// mixer draws requests from the whole key universe with its own
// seeded stream, so the same seed replays the same request sequence
// per client.
type mixer struct {
	rng *rand.Rand
	u   *universe
}

func newMixer(u *universe, seed int64, client int) *mixer {
	return &mixer{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), u: u}
}

func (m *mixer) article() string { return m.u.articles[m.rng.Intn(len(m.u.articles))] }

// cheap draws one read that does no walk: /top, /query, /article,
// /authors, /venues or /compare. The shares are the load harness's
// mix (cmd/loadgen: 20% /top, 35% /query, 30% /article, 15%
// /related); its /related share goes to the three routes that mix
// lacks, 5% each.
func (m *mixer) cheap() request {
	r := m.rng.Float64()
	switch {
	case r < 0.20:
		k := 10 + m.rng.Intn(topK-9)
		return request{route: "/top", path: fmt.Sprintf("/top?k=%d", k), k: k}
	case r < 0.55:
		return m.query()
	case r < 0.85:
		key := m.article()
		return request{route: "/article", path: "/article?key=" + url.QueryEscape(key), key: key}
	case r < 0.90:
		return request{route: "/authors", path: fmt.Sprintf("/authors?k=%d", 10+m.rng.Intn(41))}
	case r < 0.95:
		return request{route: "/venues", path: fmt.Sprintf("/venues?k=%d", 10+m.rng.Intn(41))}
	default:
		return request{route: "/compare",
			path: "/compare?a=" + url.QueryEscape(m.article()) + "&b=" + url.QueryEscape(m.article())}
	}
}

// query draws a filtered top-K: an author, a venue or neither, and a
// year window half of the time, all uniform over the universe.
func (m *mixer) query() request {
	req := request{route: "/query", k: 5 + m.rng.Intn(46)}
	p := fmt.Sprintf("/query?k=%d", req.k)
	switch m.rng.Intn(3) {
	case 0:
		p += "&author=" + url.QueryEscape(m.u.authors[m.rng.Intn(len(m.u.authors))])
	case 1:
		p += "&venue=" + url.QueryEscape(m.u.venues[m.rng.Intn(len(m.u.venues))])
	}
	if span := m.u.maxYear - m.u.minYear; span > 0 && m.rng.Intn(2) == 0 {
		req.from = m.u.minYear + m.rng.Intn(span)
		req.to = req.from + 1 + m.rng.Intn(span)
		p += fmt.Sprintf("&from=%d&to=%d", req.from, req.to)
	}
	req.path = p
	return req
}

// related draws a /related seed uniformly over every article, so the
// response cache cannot absorb the walks.
func (m *mixer) related() request {
	key := m.article()
	return request{route: "/related", path: "/related?key=" + url.QueryEscape(key) + "&k=10",
		key: key, k: 10}
}

// checker verifies responses against the benchmark's own cold rank of
// the served corpus. Version-1 answers (the boot ranking) are compared
// value for value; later generations, after ingest, structurally.
type checker struct {
	keys  []string
	ids   map[string]int
	imp   []float64
	order []int // every article by descending importance
	pos   []int // 1-based rank position per article
	top   sync.Map
}

func newChecker(u *universe, imp []float64) *checker {
	c := &checker{keys: u.articles, ids: make(map[string]int, len(u.articles)), imp: imp,
		order: rank.TopK(imp, len(imp)), pos: make([]int, len(imp))}
	for i, k := range u.articles {
		c.ids[k] = i
	}
	for p, i := range c.order {
		c.pos[i] = p + 1
	}
	return c
}

// check verifies one response; deep additionally decodes and checks
// /query pages (the client samples those to stay light).
func (c *checker) check(req request, res response, deep bool) error {
	if res.err != nil {
		return fmt.Errorf("%s: %w", req.path, res.err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("%s: status %d", req.path, res.status)
	}
	var err error
	switch req.route {
	case "/top":
		err = c.checkTop(req.k, res)
	case "/article":
		var v serve.ArticleView
		if err = json.Unmarshal(res.body, &v); err == nil {
			if v.Key != req.key {
				err = fmt.Errorf("key %q, want %q", v.Key, req.key)
			} else {
				err = c.checkView(v, res.version, c.ids[req.key])
			}
		}
	case "/related":
		err = c.checkRelated(req, res.body)
	case "/query":
		if deep {
			err = c.checkQuery(req, res)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", req.path, err)
	}
	return nil
}

// checkTop compares a /top page with the reference order. A verified
// boot-generation body is remembered per k, so repeats cost a byte
// comparison.
func (c *checker) checkTop(k int, res response) error {
	if res.version == 1 {
		if prev, ok := c.top.Load(k); ok && bytes.Equal(prev.([]byte), res.body) {
			return nil
		}
	}
	var views []serve.ArticleView
	if err := json.Unmarshal(res.body, &views); err != nil {
		return err
	}
	if len(views) != k {
		return fmt.Errorf("%d results, want %d", len(views), k)
	}
	for j, v := range views {
		if v.Rank != j+1 || (j > 0 && v.Importance > views[j-1].Importance) {
			return fmt.Errorf("result %d out of rank order", j)
		}
		if res.version == 1 {
			if v.Key != c.keys[c.order[j]] {
				return fmt.Errorf("rank %d is %q, reference rank has %q", j+1, v.Key, c.keys[c.order[j]])
			}
			if err := c.checkView(v, 1, c.order[j]); err != nil {
				return err
			}
		}
	}
	if res.version == 1 {
		c.top.Store(k, res.body)
	}
	return nil
}

// checkView checks an article's served importance and rank against the
// reference when served from the boot generation, and that it is a
// finite score in [0, 1] otherwise.
func (c *checker) checkView(v serve.ArticleView, version int64, id int) error {
	if math.IsNaN(v.Importance) || v.Importance < 0 || v.Importance > 1 {
		return fmt.Errorf("%s importance %v outside [0, 1]", v.Key, v.Importance)
	}
	if version != 1 {
		return nil
	}
	if v.Importance != c.imp[id] || v.Rank != c.pos[id] {
		return fmt.Errorf("%s importance %v rank %d, reference %v rank %d",
			v.Key, v.Importance, v.Rank, c.imp[id], c.pos[id])
	}
	return nil
}

// checkRelated requires k distinct results that exclude the seed.
func (c *checker) checkRelated(req request, body []byte) error {
	var views []serve.ArticleView
	if err := json.Unmarshal(body, &views); err != nil {
		return err
	}
	if want := min(req.k, len(c.keys)-1); len(views) != want {
		return fmt.Errorf("%d related, want %d", len(views), want)
	}
	seen := make(map[string]bool, len(views))
	for _, v := range views {
		if v.Key == req.key || seen[v.Key] {
			return fmt.Errorf("related result %q repeats the seed or another result", v.Key)
		}
		seen[v.Key] = true
	}
	return nil
}

// checkQuery requires a page in global rank order, within k, inside
// the year window, with reference scores on the boot generation.
func (c *checker) checkQuery(req request, res response) error {
	var page serve.QueryResponse
	if err := json.Unmarshal(res.body, &page); err != nil {
		return err
	}
	if page.Count != len(page.Results) || page.Count > req.k {
		return fmt.Errorf("count %d with %d results for k=%d", page.Count, len(page.Results), req.k)
	}
	for j, v := range page.Results {
		if j > 0 && v.Rank <= page.Results[j-1].Rank {
			return fmt.Errorf("result %d out of rank order", j)
		}
		if req.to != 0 && (v.Year < req.from || v.Year > req.to) {
			return fmt.Errorf("%s year %d outside %d..%d", v.Key, v.Year, req.from, req.to)
		}
		id, ok := c.ids[v.Key]
		if !ok && res.version == 1 {
			return fmt.Errorf("unknown article %q", v.Key)
		}
		if err := c.checkView(v, res.version, id); err != nil {
			return err
		}
	}
	return nil
}

// setupServer boots the server setupReps times (setup_s is the median
// boot), keeps the last one, reads the heap, ranks the corpus itself
// for the checker and the reported quality grade and, when traced,
// records the boot's layer split. coldLayers also records the cold
// solve and the generation build, which the ingest workload takes from
// its warm replay instead. The caller closes the returned rig.
func (b *bench) setupServer(coldLayers bool) (*rig, *checker, error) {
	var cur *rig
	var boots []float64
	var firstTop []byte
	for i := 0; i < setupReps; i++ {
		r, d, body, err := b.boot()
		if err != nil {
			return nil, nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, d.Seconds())
		if cur != nil {
			cur.close()
		}
		cur, firstTop = r, body
	}
	b.e2e["setup_s"] = median(boots)
	b.e2e["heap_mb"] = heapMB()
	c, err := b.reference(cur, firstTop, coldLayers)
	if err != nil {
		cur.close()
		return nil, nil, err
	}
	return cur, c, nil
}

// reference ranks the served corpus on the benchmark's side, checks
// the boot's first /top page against it and reports its quality.
func (b *bench) reference(r *rig, firstTop []byte, coldLayers bool) (*checker, error) {
	ref, release, err := coldRank(b.in.path, b.traced, true)
	if err != nil {
		return nil, err
	}
	defer release()
	b.check(checkScores(ref.scores))
	c := newChecker(&b.in.keys, ref.scores.Importance)
	b.check(c.check(request{route: "/top", path: "/top", k: topK},
		response{status: http.StatusOK, version: 1, body: firstTop}, true))
	if err := b.gradeSeed(ref.scores.Importance); err != nil {
		return nil, err
	}
	if !b.traced {
		return c, nil
	}
	l := b.layers
	l.add("corpus.open_ms", ms(ref.open))
	l.add("hetnet.build_ms", ms(ref.build))
	for _, t := range r.srv.Tracer().Recent() {
		if t.Root.Name == "boot.solve" {
			l.add("serve.boot_solve_ms", t.Root.DurationMS)
		}
	}
	if !coldLayers {
		return c, nil
	}
	l.add("core.engine_ms", ms(ref.engine))
	l.addSolve(ref.solve, ref.scores)
	if err := recordGeneration(l, ref.store, ref.net, ref.scores); err != nil {
		return nil, err
	}
	return c, nil
}

// recordGeneration replays, from the program's public pieces, what a
// server generation derives from a solved ranking and records each
// piece's time: the full rank order, the author and venue rankings,
// the related-article index, the query index and the fingerprint.
func recordGeneration(l *layerSet, store *corpus.Store, net *hetnet.Network, sc *core.Scores) error {
	t := time.Now()
	order := rank.TopK(sc.Importance, store.NumArticles())
	pos := make([]int, len(order))
	for p, i := range order {
		pos[i] = p + 1
	}
	l.add("rank.topk_ms", ms(time.Since(t)))
	t = time.Now()
	if _, err := rank.AuthorRank(net, sc.Importance, rank.EntityRankOptions{}); err != nil {
		return err
	}
	if _, err := rank.VenueRank(net, sc.Importance, rank.EntityRankOptions{}); err != nil {
		return err
	}
	l.add("rank.entity_ms", ms(time.Since(t)))
	t = time.Now()
	ri, err := rank.NewRelatedIndex(net, rank.RelatedOptions{})
	if err != nil {
		return err
	}
	l.add("rank.related_build_ms", ms(time.Since(t)))
	ri.Close()
	t = time.Now()
	query.New(store, order, pos)
	l.add("query.build_ms", ms(time.Since(t)))
	t = time.Now()
	live.Fingerprint(store)
	l.add("live.fingerprint_ms", ms(time.Since(t)))
	return nil
}
