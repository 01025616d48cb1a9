package rank

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// relatedFixture builds two citation clusters joined by one bridge:
//
//	cluster A: a0 <- a1, a0 <- a2, a1 <- a2
//	cluster B: b0 <- b1, b0 <- b2, b1 <- b2
//	bridge:    b0 cites a0
func relatedFixture(t *testing.T) (*hetnet.Network, map[string]corpus.ArticleID) {
	t.Helper()
	s := corpus.NewBuilder()
	ids := map[string]corpus.ArticleID{}
	for i, key := range []string{"a0", "a1", "a2", "b0", "b1", "b2"} {
		id, err := s.AddArticle(corpus.ArticleMeta{Key: key, Year: 2000 + i, Venue: corpus.NoVenue})
		if err != nil {
			t.Fatal(err)
		}
		ids[key] = id
	}
	for _, c := range [][2]string{
		{"a1", "a0"}, {"a2", "a0"}, {"a2", "a1"},
		{"b1", "b0"}, {"b2", "b0"}, {"b2", "b1"},
		{"b0", "a0"},
	} {
		if err := s.AddCitation(ids[c[0]], ids[c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return hetnet.Build(s.Freeze()), ids
}

func TestRelatedFindsOwnCluster(t *testing.T) {
	net, ids := relatedFixture(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(ids["a2"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	// a2's closest relatives are a0 and a1, not the b cluster.
	want := map[int]bool{int(ids["a0"]): true, int(ids["a1"]): true}
	for _, i := range got {
		if !want[i] {
			t.Errorf("unexpected related article %d", i)
		}
	}
}

func TestRelatedExcludesSeed(t *testing.T) {
	net, ids := relatedFixture(t)
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(ids["a0"], 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range got {
		if i == int(ids["a0"]) {
			t.Error("seed included in results")
		}
	}
	// Everything is reachable through the bridge in the bidirectional
	// walk, so all 5 other articles appear.
	if len(got) != 5 {
		t.Errorf("got %d results, want 5", len(got))
	}
}

func TestRelatedValidation(t *testing.T) {
	net, _ := relatedFixture(t)
	if _, err := NewRelatedIndex(net, RelatedOptions{Damping: 2}); !errors.Is(err, ErrBadParam) {
		t.Errorf("damping 2: %v", err)
	}
	ri, err := NewRelatedIndex(net, RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ri.Related(99, 3); !errors.Is(err, ErrBadParam) {
		t.Errorf("out-of-range seed: %v", err)
	}
	got, err := ri.Related(0, 0)
	if err != nil || got != nil {
		t.Errorf("k=0: %v %v", got, err)
	}
}

func TestRelatedIsolatedSeed(t *testing.T) {
	s := corpus.NewBuilder()
	if _, err := s.AddArticle(corpus.ArticleMeta{Key: "solo", Year: 2000, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddArticle(corpus.ArticleMeta{Key: "other", Year: 2001, Venue: corpus.NoVenue}); err != nil {
		t.Fatal(err)
	}
	ri, err := NewRelatedIndex(hetnet.Build(s.Freeze()), RelatedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ri.Related(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// No links at all: the walk never leaves the seed, so the other
	// article collects no mass and the result is empty.
	if len(got) != 0 {
		t.Errorf("isolated seed returned %v", got)
	}
}

// builderRelatedOperator is the reference construction of the related
// operator: both directions of every citation pushed through
// graph.Builder, which sorts all edges globally.
func builderRelatedOperator(t *testing.T, net *hetnet.Network) *sparse.Transition {
	t.Helper()
	src := net.Citations
	b := graph.NewBuilder(src.NumNodes(), false)
	src.VisitEdges(func(u, v graph.NodeID, _ float64) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(v, u); err != nil {
			t.Fatal(err)
		}
	})
	return sparse.NewTransition(b.Build(), nil)
}

// randomRelatedCorpus draws a corpus of n articles whose citations
// include duplicate refs and mutual pairs; every fifth article is left
// isolated.
func randomRelatedCorpus(t *testing.T, rng *rand.Rand, n int) *hetnet.Network {
	t.Helper()
	b := corpus.NewBuilder()
	for i := range n {
		if _, err := b.AddArticle(corpus.ArticleMeta{Key: fmt.Sprint(i), Year: 2000 + i%10, Venue: corpus.NoVenue}); err != nil {
			t.Fatal(err)
		}
	}
	cite := func(from, to int) {
		if err := b.AddCitation(corpus.ArticleID(from), corpus.ArticleID(to)); err != nil {
			t.Fatal(err)
		}
	}
	linked := func(i int) bool { return i%5 != 4 }
	for from := range n {
		if !linked(from) {
			continue
		}
		for range rng.Intn(5) {
			to := rng.Intn(n)
			if to == from || !linked(to) {
				continue
			}
			cite(from, to)
			switch rng.Intn(4) {
			case 0:
				cite(from, to) // duplicate ref
			case 1:
				cite(to, from) // mutual citation
			}
		}
	}
	return hetnet.Build(b.Freeze())
}

// TestRelatedOperatorMatchesBuilder pins the counting-sort build of the
// related operator to the graph.Builder construction: the operators
// are deeply equal and every seed's related list is identical.
func TestRelatedOperatorMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Networks given as bare citation graphs: the corpus builder rejects
	// self-citations, but the operator accepts any citation graph, and a
	// self-loop and its reverse merge into one edge.
	citations := func(n int, src, dst []graph.NodeID) *hetnet.Network {
		g, err := graph.FromEdges(n, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return &hetnet.Network{Citations: g}
	}
	cases := map[string]*hetnet.Network{
		"empty":        hetnet.Build(corpus.NewBuilder().Freeze()),
		"single":       randomRelatedCorpus(t, rng, 1),
		"no citations": citations(4, nil, nil),
		"self citations": citations(4,
			[]graph.NodeID{0, 0, 1, 2, 3, 3},
			[]graph.NodeID{0, 1, 1, 0, 2, 3}),
		"generated": func() *hetnet.Network {
			cfg := gen.NewDefaultConfig(300)
			cfg.Seed = 3
			c, err := gen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return hetnet.Build(c.Store)
		}(),
	}
	for _, n := range []int{2, 5, 12, 40, 90} {
		cases[fmt.Sprintf("random n=%d", n)] = randomRelatedCorpus(t, rng, n)
	}

	for name, net := range cases {
		t.Run(name, func(t *testing.T) {
			ri, err := NewRelatedIndex(net, RelatedOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			ri.Close() // detach the pool so only the operators are compared
			want := &RelatedIndex{trans: builderRelatedOperator(t, net), n: ri.n, opts: ri.opts}
			if !reflect.DeepEqual(ri.trans, want.trans) {
				t.Fatal("operator differs from the graph.Builder construction")
			}
			for seed := range ri.n {
				got, err := ri.Related(int32(seed), ri.n)
				if err != nil {
					t.Fatal(err)
				}
				exp, err := want.Related(int32(seed), ri.n)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, exp) {
					t.Fatalf("seed %d: related %v, want %v", seed, got, exp)
				}
			}
		})
	}
}
