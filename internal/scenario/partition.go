package scenario

import (
	"math"
	"sort"
	"time"
)

// shardPlan is the output of partitioning a spec's topology for sharded
// execution: a shard index per node, the shard count actually used, and the
// lookahead — the smallest propagation delay of any link whose two
// endpoints landed on different shards. The lookahead is the conservative
// synchronization window: a shard that has run to virtual time T cannot be
// affected by any other shard before T + lookahead, because every cross-shard
// interaction is a packet that spends at least that long propagating.
type shardPlan struct {
	shardOf   map[string]int
	nshards   int
	lookahead time.Duration
}

// planShards partitions the spec's nodes into at most spec.Shards shards so
// that the smallest cross-shard link delay — the lookahead — is as large as
// possible: low-delay links are contracted first (single-linkage clustering,
// Kruskal-style), so only the highest-delay links survive in the cut. A
// size cap keeps the shards roughly balanced on the first pass; if the cap
// (or a disconnected topology) leaves more components than shards, a second
// uncapped pass keeps contracting cheapest edges first, which can only raise
// the surviving cut's minimum delay.
//
// Components are tracked with a union-find structure using path halving and
// union by size — the sequential core of the concurrent disjoint-set-union
// structures surveyed by Jayanti & Tarjan, which is all the coordinator
// needs since partitioning happens before any worker starts.
func planShards(spec *Spec, nodeNames []string) shardPlan {
	n := len(nodeNames)
	k := spec.Shards
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	idx := make(map[string]int, n)
	for i, name := range nodeNames {
		idx[name] = i
	}

	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	comps := n
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
		comps--
	}

	type edge struct {
		a, b int
		d    time.Duration
	}
	edges := make([]edge, len(spec.Links))
	for i, ls := range spec.Links {
		edges[i] = edge{a: idx[ls.A], b: idx[ls.B], d: ls.Delay}
	}
	// Stable sort: equal-delay edges contract in declaration order, keeping
	// the partition a pure function of the spec.
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].d < edges[j].d })

	// Pass 1: contract cheapest edges while respecting a balance cap.
	capSize := (n + k - 1) / k
	for _, e := range edges {
		if comps <= k {
			break
		}
		if ra, rb := find(e.a), find(e.b); ra != rb && size[ra]+size[rb] <= capSize {
			union(e.a, e.b)
		}
	}
	// Pass 2: the cap (or disconnection) left too many components; contract
	// cheapest edges regardless of balance.
	for _, e := range edges {
		if comps <= k {
			break
		}
		union(e.a, e.b)
	}
	// Disconnected leftovers have no edges between them: merging is free
	// (it removes nothing from the cut).
	for i := 1; i < n && comps > k; i++ {
		union(0, i)
	}

	// Number shards in first-mention order of their first node.
	shardOf := make(map[string]int, n)
	rootShard := make(map[int]int, comps)
	for i, name := range nodeNames {
		r := find(i)
		s, ok := rootShard[r]
		if !ok {
			s = len(rootShard)
			rootShard[r] = s
		}
		shardOf[name] = s
	}

	lookahead := time.Duration(math.MaxInt64)
	for _, ls := range spec.Links {
		if shardOf[ls.A] != shardOf[ls.B] && ls.Delay < lookahead {
			lookahead = ls.Delay
		}
	}
	return shardPlan{shardOf: shardOf, nshards: len(rootShard), lookahead: lookahead}
}
