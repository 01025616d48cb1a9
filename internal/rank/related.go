package rank

import (
	"fmt"
	"slices"

	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
)

// RelatedOptions configures related-article search.
type RelatedOptions struct {
	// Damping of the personalised walk; zero selects DefaultDamping.
	// Lower values stay closer to the seed's immediate neighbourhood.
	Damping float64
	// Workers sets mat-vec parallelism.
	Workers int
	// Iter controls convergence.
	Iter sparse.IterOptions
}

// RelatedIndex answers related-article queries over one corpus. It
// precomputes the bidirectional citation operator once (references
// and citers both signal relatedness), so per-query cost is just the
// personalised walk. The index owns a worker pool sized by
// Options.Workers; call Close to release it.
type RelatedIndex struct {
	trans *sparse.Transition
	pool  *sparse.Pool
	n     int
	opts  RelatedOptions
}

// NewRelatedIndex builds the index for the network.
func NewRelatedIndex(net *hetnet.Network, opts RelatedOptions) (*RelatedIndex, error) {
	if opts.Damping == 0 {
		opts.Damping = DefaultDamping
	}
	if opts.Damping <= 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("%w: related damping %v", ErrBadParam, opts.Damping)
	}
	// Both directions of every citation, counting-sorted by source
	// into one CSR in O(E): row u holds u's references and its citers.
	// FromCSRRows then sorts and deduplicates each row, so a mutual
	// citation pair collapses to one undirected edge.
	src := net.Citations
	n := src.NumNodes()
	offsets := make([]int64, n+1)
	for u := range n {
		refs := src.Neighbors(graph.NodeID(u))
		offsets[u+1] += int64(len(refs))
		for _, v := range refs {
			offsets[v+1]++
		}
	}
	for u := range n {
		offsets[u+1] += offsets[u]
	}
	dsts := make([]graph.NodeID, offsets[n])
	next := slices.Clone(offsets[:n])
	for u := range n {
		for _, v := range src.Neighbors(graph.NodeID(u)) {
			dsts[next[u]] = v
			next[u]++
			dsts[next[v]] = graph.NodeID(u)
			next[v]++
		}
	}
	pool := sparse.NewPool(opts.Workers)
	return &RelatedIndex{
		trans: sparse.NewTransition(graph.FromCSRRows(n, offsets, dsts), pool),
		pool:  pool,
		n:     n,
		opts:  opts,
	}, nil
}

// Close releases the index's worker pool. Queries remain valid after
// Close, falling back to serial kernels.
func (ri *RelatedIndex) Close() {
	if ri.pool != nil {
		ri.pool.Close()
		ri.trans.SetPool(nil)
		ri.pool = nil
	}
}

// Related returns up to k articles most related to the seed, by the
// stationary mass of a random walk that restarts at the seed and
// follows citations in either direction. The seed itself is excluded.
func (ri *RelatedIndex) Related(seed int32, k int) ([]int, error) {
	if int(seed) < 0 || int(seed) >= ri.n {
		return nil, fmt.Errorf("%w: related seed %d of %d", ErrBadParam, seed, ri.n)
	}
	if k <= 0 {
		return nil, nil
	}
	teleport := make([]float64, ri.n)
	teleport[seed] = 1
	scores, _, err := sparse.DampedWalk(ri.trans, ri.opts.Damping, teleport, ri.opts.Iter)
	if err != nil {
		return nil, err
	}
	scores[seed] = 0 // exclude the seed itself
	top := TopK(scores, k+1)
	out := make([]int, 0, k)
	for _, i := range top {
		if i == int(seed) || scores[i] == 0 {
			continue
		}
		out = append(out, i)
		if len(out) == k {
			break
		}
	}
	return out, nil
}
