package topo

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Dense, index-compressed routing kernels. Every production switch-path
// computation runs here: the controller's Algorithm 1 and HostPath over the
// master Topology's snapshot, the hosts' k-shortest paths over their
// TopoCache Subgraph's. A DenseGraph maps switch IDs to contiguous ints once
// per topology generation (or Subgraph adjacency change) and lays the
// adjacency out in CSR form, so BFS, Dijkstra and Yen's run over reusable
// scratch buffers instead of per-call maps. The map-based walks they replaced
// live on in oracle_test.go as the bit-for-bit reference.

// DenseGraph is an immutable, index-compressed CSR snapshot of a switch
// graph. Node indices are the rank of each switch ID in ascending order. Each
// row follows its owner's Neighbors order — port order for a Topology,
// neighbour-ID order for a Subgraph — so equal-cost tie-breaks and rng draws
// match a walk over Neighbors.
type DenseGraph struct {
	gen   uint64
	ids   []SwitchID         // node index -> switch ID, ascending
	index map[SwitchID]int32 // switch ID -> node index
	start []int32            // CSR row offsets, len(ids)+1
	nbr   []int32            // edge target node index
	nbs   []Neighbor         // edge target ID and local out-port, parallel to nbr
}

// newDense starts a snapshot over ascending ids, filling index (allocated
// when nil) with their ranks. Callers then append each row's edges to
// nbr/nbs in node order and close it with endRow.
func newDense(ids []SwitchID, index map[SwitchID]int32, edges int) *DenseGraph {
	if index == nil {
		index = make(map[SwitchID]int32, len(ids))
	}
	for i, id := range ids {
		index[id] = int32(i)
	}
	return &DenseGraph{ids: ids, index: index, start: make([]int32, 1, len(ids)+1),
		nbr: make([]int32, 0, edges), nbs: make([]Neighbor, 0, edges)}
}

// endRow closes the row under construction, insertion-sorting it (rows are
// one switch's degree long) by out-port or by target.
func (g *DenseGraph) endRow(byPort bool) {
	lo := int(g.start[len(g.start)-1])
	for i := lo + 1; i < len(g.nbr); i++ {
		for j := i; j > lo && (byPort && g.nbs[j].Port < g.nbs[j-1].Port ||
			!byPort && g.nbr[j] < g.nbr[j-1]); j-- {
			g.nbr[j], g.nbr[j-1] = g.nbr[j-1], g.nbr[j]
			g.nbs[j], g.nbs[j-1] = g.nbs[j-1], g.nbs[j]
		}
	}
	g.start = append(g.start, int32(len(g.nbr)))
}

// NewDenseGraph snapshots a topology's switch graph straight from its port
// wiring. Prefer Topology.Dense, which caches one snapshot per generation.
func NewDenseGraph(t *Topology) *DenseGraph {
	ids := t.SwitchIDs()
	edges := 0
	for _, sw := range t.switches {
		edges += len(sw.wired)
	}
	g := newDense(ids, nil, edges)
	g.gen = t.gen
	for _, id := range ids {
		for p, ep := range t.switches[id].wired {
			if ep.Kind == EndpointSwitch {
				g.nbr = append(g.nbr, g.index[ep.Switch])
				g.nbs = append(g.nbs, Neighbor{Sw: ep.Switch, Port: p})
			}
		}
		g.endRow(true)
	}
	return g
}

// NumNodes reports the number of switches in the snapshot.
func (g *DenseGraph) NumNodes() int { return len(g.ids) }

// Generation reports the topology generation the snapshot was built from.
func (g *DenseGraph) Generation() uint64 { return g.gen }

// IndexOf maps a switch ID to its dense node index.
func (g *DenseGraph) IndexOf(id SwitchID) (int32, bool) {
	i, ok := g.index[id]
	return i, ok
}

// IDOf maps a dense node index back to its switch ID.
func (g *DenseGraph) IDOf(i int32) SwitchID { return g.ids[i] }

// EdgeRange returns the CSR edge index range [lo, hi) of node i's
// adjacency, for callers building their own walks over the snapshot (the
// multicast tree builder is one).
func (g *DenseGraph) EdgeRange(i int32) (lo, hi int32) { return g.start[i], g.start[i+1] }

// EdgeTarget returns edge e's target node index.
func (g *DenseGraph) EdgeTarget(e int32) int32 { return g.nbr[e] }

// EdgePort returns the local out-port of edge e.
func (g *DenseGraph) EdgePort(e int32) Port { return g.nbs[e].Port }

// Neighbors returns switch id's row as Neighbors (nil for an unknown
// switch). The slice is shared and must not be mutated.
func (g *DenseGraph) Neighbors(id SwitchID) []Neighbor {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	return g.nbs[g.start[i]:g.start[i+1]:g.start[i+1]]
}

// PortBetween returns from's lowest-numbered port toward to (the same
// lowest-port-wins answer Topology.PortToward gives).
func (g *DenseGraph) PortBetween(from, to int32) (Port, bool) {
	for e := g.start[from]; e < g.start[from+1]; e++ {
		if g.nbr[e] == to {
			return g.nbs[e].Port, true
		}
	}
	return 0, false
}

// pair maps a (src, dst) switch pair onto node indices.
func (g *DenseGraph) pair(src, dst SwitchID) (si, di int32, ok bool) {
	si, okS := g.index[src]
	di, okD := g.index[dst]
	return si, di, okS && okD
}

// idPath converts a node-index path to switch IDs.
func (g *DenseGraph) idPath(p []int32) SwitchPath {
	out := make(SwitchPath, len(p))
	for i, idx := range p {
		out[i] = g.ids[idx]
	}
	return out
}

// Bitset is a reusable visited-set over dense node indices — the scratch
// replacement for the per-call map[SwitchID]bool sets the routing walks
// used to allocate.
type Bitset struct {
	words []uint64
}

// Reset clears the set and ensures capacity for n bits.
func (b *Bitset) Reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	clear(b.words)
}

// Set marks index i.
func (b *Bitset) Set(i int32) { b.words[i>>6] |= 1 << uint(i&63) }

// Has reports whether index i is marked.
func (b *Bitset) Has(i int32) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// cutSet hides nodes and CSR edges from a walk: Yen's spur search runs on
// the graph minus its root path and minus the edges earlier paths with the
// same root leave the spur by. A nil cutSet hides nothing.
type cutSet struct{ nodes, edges Bitset }

func (c *cutSet) hides(e, nb int32) bool { return c != nil && (c.edges.Has(e) || c.nodes.Has(nb)) }

// span locates one path in DenseScratch.arena.
type span struct{ off, n int32 }

// DenseScratch holds the reusable buffers the dense kernels run over. One
// scratch serves one goroutine at a time; the zero value is ready to use and
// grows to the largest graph it has seen.
type DenseScratch struct {
	dist   []int32 // BFS hop counts (-1 = unreached)
	queue  []int32 // BFS visit order / work queue
	distB  []int32 // second BFS front (detour windows)
	queueB []int32
	wdist  []float64 // Dijkstra tentative distances
	prev   []int32   // Dijkstra predecessors
	done   Bitset    // Dijkstra visited set
	nodes  Bitset    // path-graph node set under construction
	path   []int32   // primary path buffer
	pathB  []int32   // backup path buffer
	cand   []int32   // equal-cost candidate set
	cut    cutSet    // Yen's spur-search filter
	arena  []int32   // Yen's accepted and candidate paths, back to back
	paths  []span    // Yen's accepted paths, in order
	cands  []span    // Yen's queued candidates, unordered
}

// NewDenseScratch returns an empty scratch; buffers grow on first use.
func NewDenseScratch() *DenseScratch { return &DenseScratch{} }

// The View-level kernels (ShortestPath, KShortestPaths, HostPath, ...)
// borrow scratch from this freelist, which holds at most as many as were
// ever in use at once. It is a mutex-guarded stack, not a sync.Pool: under
// -race a sync.Pool drops Puts at random, so warm calls would allocate.
var (
	scratchMu    sync.Mutex
	scratchStack []*DenseScratch
)

func getScratch() *DenseScratch {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if n := len(scratchStack); n > 0 {
		sc := scratchStack[n-1]
		scratchStack = scratchStack[:n-1]
		return sc
	}
	return NewDenseScratch()
}

func putScratch(sc *DenseScratch) {
	scratchMu.Lock()
	scratchStack = append(scratchStack, sc)
	scratchMu.Unlock()
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bfsInto runs BFS from src, filling dist with hop counts (-1 unreached) and
// returning the visit-order queue (which doubles as the reached-node list).
// maxDepth < 0 means unbounded; otherwise nodes at depth maxDepth are
// recorded but not expanded, matching boundedDistances in pathgraph.go.
// Nodes and edges in cut are skipped.
func (g *DenseGraph) bfsInto(dist, queue []int32, src, maxDepth int32, cut *cutSet) ([]int32, []int32) {
	n := len(g.ids)
	dist = grow(dist, n)
	for i := range dist {
		dist[i] = -1
	}
	if cap(queue) < n {
		queue = make([]int32, 0, n)
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if maxDepth >= 0 && dist[cur] >= maxDepth {
			continue
		}
		for e := g.start[cur]; e < g.start[cur+1]; e++ {
			if nb := g.nbr[e]; dist[nb] < 0 && !cut.hides(e, nb) {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist, queue
}

// BFSInto computes hop counts from src into sc.dist and returns it; the
// slice is owned by sc and overwritten by the next kernel call.
func (g *DenseGraph) BFSInto(sc *DenseScratch, src int32) []int32 {
	sc.dist, sc.queue = g.bfsInto(sc.dist, sc.queue, src, -1, nil)
	return sc.dist
}

// ShortestPathInto appends one shortest path from src to dst (as dense node
// indices) to buf[:0] and returns it: BFS from dst, then a downhill walk
// collecting candidates in edge order; the first candidate wins with a nil
// rng, a uniform draw otherwise — so a shared rng seed yields the identical
// path.
func (g *DenseGraph) ShortestPathInto(sc *DenseScratch, src, dst int32, rng *rand.Rand, buf []int32) ([]int32, error) {
	return g.shortestPath(sc, src, dst, rng, buf[:0], nil)
}

// shortestPath is ShortestPathInto appending to buf as is, over the graph
// minus cut.
func (g *DenseGraph) shortestPath(sc *DenseScratch, src, dst int32, rng *rand.Rand, buf []int32, cut *cutSet) ([]int32, error) {
	if src == dst {
		return append(buf, src), nil
	}
	sc.dist, sc.queue = g.bfsInto(sc.dist, sc.queue, dst, -1, cut)
	if sc.dist[src] < 0 {
		return nil, ErrNoPath
	}
	buf = append(buf, src)
	for cur := src; cur != dst; {
		want := sc.dist[cur] - 1
		sc.cand = sc.cand[:0]
		for e := g.start[cur]; e < g.start[cur+1]; e++ {
			if nb := g.nbr[e]; sc.dist[nb] == want && !cut.hides(e, nb) {
				sc.cand = append(sc.cand, nb)
			}
		}
		if len(sc.cand) == 0 {
			return nil, ErrNoPath
		}
		next := sc.cand[0]
		if rng != nil && len(sc.cand) > 1 {
			next = sc.cand[rng.Intn(len(sc.cand))]
		}
		buf = append(buf, next)
		cur = next
	}
	return buf, nil
}

// WeightedShortestPathInto runs Dijkstra from src to dst with per-edge
// weights from cost (values <= 0 count as 1), appending the path to buf[:0].
// Selection order is smallest distance, then smallest node index (which is
// the smallest switch ID), and relaxation uses strict improvement, so ties
// resolve deterministically.
func (g *DenseGraph) WeightedShortestPathInto(sc *DenseScratch, src, dst int32, cost func(a, b int32) float64, buf []int32) ([]int32, error) {
	n := len(g.ids)
	sc.wdist = grow(sc.wdist, n)
	sc.prev = grow(sc.prev, n)
	for i := range sc.wdist {
		sc.wdist[i] = math.Inf(1)
		sc.prev[i] = -1
	}
	sc.done.Reset(n)
	sc.wdist[src] = 0
	for {
		best := int32(-1)
		bd := math.Inf(1)
		for i := int32(0); i < int32(n); i++ {
			if sc.done.Has(i) || math.IsInf(sc.wdist[i], 1) {
				continue
			}
			if best < 0 || sc.wdist[i] < bd {
				best, bd = i, sc.wdist[i]
			}
		}
		if best < 0 {
			return nil, ErrNoPath
		}
		if best == dst {
			break
		}
		sc.done.Set(best)
		for e := g.start[best]; e < g.start[best+1]; e++ {
			nb := g.nbr[e]
			if sc.done.Has(nb) {
				continue
			}
			w := cost(best, nb)
			if w <= 0 {
				w = 1
			}
			if nd := bd + w; nd < sc.wdist[nb] {
				sc.wdist[nb] = nd
				sc.prev[nb] = best
			}
		}
	}
	buf = buf[:0]
	for cur := dst; ; {
		buf = append(buf, cur)
		if cur == src {
			break
		}
		cur = sc.prev[cur]
		if cur < 0 {
			return nil, ErrNoPath
		}
	}
	slices.Reverse(buf)
	return buf, nil
}

// KShortestPaths returns up to k loop-free shortest paths from src to dst
// (Yen's algorithm over the unweighted snapshot), shortest first and equal
// lengths in lexicographic node order — which is switch-ID order. Each spur
// search is a BFS from dst plus a downhill walk over the graph minus the
// root's nodes and minus, in both directions and across parallel links,
// every edge an accepted path with the same root leaves the spur by.
// Candidates are deduplicated against every accepted and queued path. All
// working state lives in sc; only the returned paths are allocated.
func (g *DenseGraph) KShortestPaths(sc *DenseScratch, src, dst int32, k int) ([]SwitchPath, error) {
	first, err := g.shortestPath(sc, src, dst, nil, sc.arena[:0], nil)
	if err != nil {
		return nil, err
	}
	sc.arena = first
	sc.paths = append(sc.paths[:0], span{0, int32(len(first))})
	sc.cands = sc.cands[:0]
	for len(sc.paths) < k {
		last := sc.paths[len(sc.paths)-1]
		for i := int32(0); i < last.n-1; i++ {
			g.cutRoot(sc, last, i)
			off := int32(len(sc.arena))
			spur := sc.arena[last.off+i]
			buf := append(sc.arena, sc.arena[last.off:last.off+i]...)
			p, err := g.shortestPath(sc, spur, dst, nil, buf, &sc.cut)
			if err != nil {
				continue
			}
			sc.arena = p
			if c := (span{off, int32(len(p)) - off}); !sc.known(c) {
				sc.cands = append(sc.cands, c)
			} else {
				sc.arena = sc.arena[:off]
			}
		}
		if len(sc.cands) == 0 {
			break
		}
		best := 0
		for j := range sc.cands {
			if sc.less(sc.cands[j], sc.cands[best]) {
				best = j
			}
		}
		sc.paths = append(sc.paths, sc.cands[best])
		sc.cands[best] = sc.cands[len(sc.cands)-1]
		sc.cands = sc.cands[:len(sc.cands)-1]
	}
	out := make([]SwitchPath, len(sc.paths))
	for j, p := range sc.paths {
		out[j] = g.idPath(sc.at(p))
	}
	return out, nil
}

// cutRoot loads sc.cut for the spur at position i of accepted path last:
// the root's nodes before the spur, and the edge pair each accepted path
// sharing the root (spur included) continues along.
func (g *DenseGraph) cutRoot(sc *DenseScratch, last span, i int32) {
	sc.cut.nodes.Reset(len(g.ids))
	sc.cut.edges.Reset(len(g.nbr))
	root := sc.arena[last.off : last.off+i+1]
	for _, s := range sc.paths {
		if p := sc.at(s); len(p) > len(root) && slices.Equal(p[:len(root)], root) {
			g.cutEdges(&sc.cut.edges, p[i], p[i+1])
			g.cutEdges(&sc.cut.edges, p[i+1], p[i])
		}
	}
	for _, x := range root[:i] {
		sc.cut.nodes.Set(x)
	}
}

// cutEdges marks every edge from a to b (parallel links included).
func (g *DenseGraph) cutEdges(cut *Bitset, a, b int32) {
	for e := g.start[a]; e < g.start[a+1]; e++ {
		if g.nbr[e] == b {
			cut.Set(e)
		}
	}
}

func (sc *DenseScratch) at(s span) []int32 { return sc.arena[s.off : s.off+s.n] }

// known reports whether path c equals an accepted or queued path. Yen's
// holds O(k·len) paths, so a length-filtered scan over the arena is cheap
// and, unlike a set of string keys, allocates nothing.
func (sc *DenseScratch) known(c span) bool {
	p := sc.at(c)
	for _, set := range [2][]span{sc.paths, sc.cands} {
		for _, s := range set {
			if s.n == c.n && slices.Equal(sc.at(s), p) {
				return true
			}
		}
	}
	return false
}

// less orders paths by length, then lexicographically by node index.
func (sc *DenseScratch) less(a, b span) bool {
	if a.n != b.n {
		return a.n < b.n
	}
	return slices.Compare(sc.at(a), sc.at(b)) < 0
}
