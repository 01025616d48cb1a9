package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"

	"scholarrank/internal/corpus"
	"scholarrank/internal/gen"
)

// Corpus sizes at scale 1. The generator's timeline is 1970–2017 and
// the holdout keeps articles up to three years before its end, about
// 15/16 of the corpus, so these full sizes give ~200k and ~100k
// visible (train) articles.
const (
	rankArticles   = 213334
	serveArticles  = 106667
	holdoutYears   = 3
	deltaCitations = 1000
)

// inputs is everything a workload reads, derived from the seed alone:
// the train side of a temporal holdout written once as SCORP v3, the
// future citations it is graded against, the key universe requests
// draw from, and the live-ingest delta sequence.
type inputs struct {
	path        string    // SCORP v3 file of the train corpus
	articles    int       // train articles
	citations   int       // train citations
	futureCites []float64 // post-cutoff citations per train article
	keys        universe
	deltas      [][]byte // JSONL batches of ~deltaCitations new citations each
	deltaCites  []int    // citations in each batch
}

// universe is the key space requests are drawn from: every article,
// author and venue of the served corpus, so response caches mostly
// miss.
type universe struct {
	articles []string
	authors  []string
	venues   []string
	minYear  int
	maxYear  int
}

// deltaRecord mirrors one line of the live package's JSONL delta
// format: a new article with its metadata and references.
type deltaRecord struct {
	ID      string   `json:"id"`
	Title   string   `json:"title,omitempty"`
	Year    int      `json:"year"`
	Venue   string   `json:"venue,omitempty"`
	Authors []string `json:"authors,omitempty"`
	Refs    []string `json:"refs,omitempty"`
}

// makeInputs generates the corpus for n full articles from seed,
// splits it at the holdout cutoff, writes the train side to dir and,
// when withDeltas is set, turns the post-cutoff articles into the
// ingest delta sequence.
func makeInputs(dir string, n int, seed int64, withDeltas bool) (*inputs, error) {
	cfg := gen.NewDefaultConfig(n)
	cfg.Seed = seed
	full, err := gen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	h, err := gen.SplitByYear(full.Store, cfg.EndYear-holdoutYears)
	if err != nil {
		return nil, fmt.Errorf("holdout split: %w", err)
	}
	in := &inputs{
		path:        filepath.Join(dir, "train.scorp"),
		articles:    h.Train.NumArticles(),
		citations:   h.Train.NumCitations(),
		futureCites: h.FutureCites,
		keys:        keyUniverse(h.Train),
	}
	if err := corpus.WriteSCORPFile(in.path, h.Train); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	if withDeltas {
		if in.deltas, in.deltaCites, err = futureDeltas(full.Store, h.Cutoff); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func keyUniverse(s *corpus.Store) universe {
	u := universe{minYear: 1 << 30, maxYear: -(1 << 30)}
	for i := 0; i < s.NumArticles(); i++ {
		id := corpus.ArticleID(i)
		u.articles = append(u.articles, s.Key(id))
		u.minYear = min(u.minYear, s.Year(id))
		u.maxYear = max(u.maxYear, s.Year(id))
	}
	for i := 0; i < s.NumAuthors(); i++ {
		u.authors = append(u.authors, s.Author(corpus.AuthorID(i)).Key)
	}
	for i := 0; i < s.NumVenues(); i++ {
		u.venues = append(u.venues, s.Venue(corpus.VenueID(i)).Key)
	}
	return u
}

// futureDeltas packs the articles published after cutoff, in
// publication order, into JSONL batches of at least deltaCitations
// distinct references each — the papers that arrive after the served
// corpus was ranked. Generated articles only cite earlier ones, so
// every reference resolves to the corpus or an earlier batch. It also
// returns the number of citations in each batch.
func futureDeltas(full *corpus.Store, cutoff int) ([][]byte, []int, error) {
	var out [][]byte
	var counts []int
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	cites := 0
	for i := 0; i < full.NumArticles(); i++ {
		id := corpus.ArticleID(i)
		if full.Year(id) <= cutoff {
			continue
		}
		rec := deltaRecord{ID: full.Key(id), Title: full.Title(id), Year: full.Year(id)}
		if v := full.VenueOf(id); v != corpus.NoVenue {
			rec.Venue = full.Venue(v).Key
		}
		for _, a := range full.Authors(id) {
			rec.Authors = append(rec.Authors, full.Author(a).Key)
		}
		seen := make(map[corpus.ArticleID]bool)
		for _, r := range full.Refs(id) {
			if !seen[r] {
				seen[r] = true
				rec.Refs = append(rec.Refs, full.Key(r))
			}
		}
		if err := enc.Encode(rec); err != nil {
			return nil, nil, fmt.Errorf("encode delta: %w", err)
		}
		if cites += len(rec.Refs); cites >= deltaCitations {
			out = append(out, append([]byte(nil), buf.Bytes()...))
			counts = append(counts, cites)
			buf.Reset()
			cites = 0
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("no future articles after %d to ingest", cutoff)
	}
	return out, counts, nil
}
