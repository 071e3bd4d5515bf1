package topo

import (
	"encoding/binary"
	"math/rand"
	"sort"

	"dumbnet/internal/packet"
)

// The map-based routing walks the dense kernels replaced, kept as the
// reference oracle: they walk Neighbors directly, allocating per-call
// map[SwitchID] state and a sorted neighbour slice per visit, and the dense
// kernels must return bit-identical answers (paths, errors and rng draw
// sequences) on every graph.

// neighborView is the adjacency the oracle walks.
type neighborView interface {
	Neighbors(id SwitchID) []Neighbor
}

// oracleView returns the oracle's adjacency for v, read from the owner's
// maps independently of the dense snapshot: a Topology's wiring port by
// port, a Subgraph's adjacency sorted by neighbour ID.
func oracleView(v View) neighborView {
	switch v := v.(type) {
	case *Topology:
		return rawTopology{v}
	case *Subgraph:
		return rawSubgraph{v}
	}
	panic("oracle: unknown view")
}

// rawSubgraph lists a Subgraph's neighbours in ID order from its maps.
type rawSubgraph struct{ s *Subgraph }

func (r rawSubgraph) Neighbors(id SwitchID) []Neighbor {
	var out []Neighbor
	for sw, p := range r.s.adj[id] {
		out = append(out, Neighbor{Sw: sw, Port: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sw < out[j].Sw })
	return out
}

// rawTopology lists a Topology's neighbours in port order from its wiring.
type rawTopology struct{ t *Topology }

func (r rawTopology) Neighbors(id SwitchID) []Neighbor {
	sw, ok := r.t.switches[id]
	if !ok {
		return nil
	}
	var out []Neighbor
	for p := 1; p <= sw.Ports; p++ {
		if ep, ok := sw.wired[Port(p)]; ok && ep.Kind == EndpointSwitch {
			out = append(out, Neighbor{Sw: ep.Switch, Port: Port(p)})
		}
	}
	return out
}

// mapDistances returns BFS hop counts from src to every reachable switch.
func mapDistances(v neighborView, src SwitchID) map[SwitchID]int {
	dist := map[SwitchID]int{src: 0}
	queue := []SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range v.Neighbors(cur) {
			if _, ok := dist[nb.Sw]; !ok {
				dist[nb.Sw] = dist[cur] + 1
				queue = append(queue, nb.Sw)
			}
		}
	}
	return dist
}

// mapShortestPath returns one shortest switch path from src to dst. When rng is
// non-nil, ties between equal-cost next hops are broken uniformly at random
// (paper §4.3: "randomizes the choice for equal cost links ... useful for
// load balancing"); with a nil rng the lowest-port neighbor wins, making the
// result deterministic.
func mapShortestPath(v neighborView, src, dst SwitchID, rng *rand.Rand) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	// BFS from dst so dist[x] is hops to destination; then walk downhill.
	dist := mapDistances(v, dst)
	if _, ok := dist[src]; !ok {
		return nil, ErrNoPath
	}
	path := SwitchPath{src}
	cur := src
	for cur != dst {
		var candidates []SwitchID
		want := dist[cur] - 1
		for _, nb := range v.Neighbors(cur) {
			if d, ok := dist[nb.Sw]; ok && d == want {
				candidates = append(candidates, nb.Sw)
			}
		}
		if len(candidates) == 0 {
			return nil, ErrNoPath
		}
		next := candidates[0]
		if rng != nil && len(candidates) > 1 {
			next = candidates[rng.Intn(len(candidates))]
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}

// mapWeightedShortestPath runs Dijkstra with per-link weights given by cost
// (defaulting to 1 when cost returns 0 or less). Used for backup-path
// computation, where primary-path links are made expensive (§4.3).
func mapWeightedShortestPath(v neighborView, src, dst SwitchID, cost func(a, b SwitchID) float64) (SwitchPath, error) {
	type qitem struct {
		sw   SwitchID
		dist float64
	}
	dist := map[SwitchID]float64{src: 0}
	prev := map[SwitchID]SwitchID{}
	visited := map[SwitchID]bool{}
	// Simple heap-free Dijkstra; graphs here are small enough, and the
	// deterministic scan order keeps results reproducible.
	for {
		// Pick the unvisited node with the smallest distance.
		best := qitem{dist: -1}
		for sw, d := range dist {
			if visited[sw] {
				continue
			}
			if best.dist < 0 || d < best.dist || (d == best.dist && sw < best.sw) {
				best = qitem{sw: sw, dist: d}
			}
		}
		if best.dist < 0 {
			return nil, ErrNoPath
		}
		if best.sw == dst {
			break
		}
		visited[best.sw] = true
		for _, nb := range v.Neighbors(best.sw) {
			if visited[nb.Sw] {
				continue
			}
			w := cost(best.sw, nb.Sw)
			if w <= 0 {
				w = 1
			}
			nd := best.dist + w
			if d, ok := dist[nb.Sw]; !ok || nd < d {
				dist[nb.Sw] = nd
				prev[nb.Sw] = best.sw
			}
		}
	}
	// Reconstruct.
	var rev SwitchPath
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		p, ok := prev[cur]
		if !ok {
			return nil, ErrNoPath
		}
		cur = p
	}
	out := make(SwitchPath, len(rev))
	for i, sw := range rev {
		out[len(rev)-1-i] = sw
	}
	return out, nil
}

// mapKShortestPaths returns up to k loop-free shortest paths from src to dst in
// ascending length order (Yen's algorithm over the unweighted view). Paths
// of equal length are ordered deterministically.
func mapKShortestPaths(v neighborView, src, dst SwitchID, k int) ([]SwitchPath, error) {
	first, err := mapShortestPath(v, src, dst, nil)
	if err != nil {
		return nil, err
	}
	paths := []SwitchPath{first}
	if k <= 1 {
		return paths, nil
	}
	// seen holds the encoding of every accepted path and queued candidate,
	// replacing the O(k²·n) containsPath scans the duplicate filter used to
	// do per spur path.
	seen := map[string]bool{pathKey(first): true}
	var candidates []SwitchPath
	for len(paths) < k {
		last := paths[len(paths)-1]
		// For each spur node in the previous path...
		for i := 0; i < len(last)-1; i++ {
			spur := last[i]
			root := last[:i+1].Clone()
			// Build a filtered view: remove links used by previous
			// paths sharing this root, and remove root nodes.
			removedEdges := map[[2]SwitchID]bool{}
			for _, p := range paths {
				if len(p) > i && p[:i+1].Equal(root) && len(p) > i+1 {
					removedEdges[[2]SwitchID{p[i], p[i+1]}] = true
					removedEdges[[2]SwitchID{p[i+1], p[i]}] = true
				}
			}
			removedNodes := map[SwitchID]bool{}
			for _, sw := range root[:len(root)-1] {
				removedNodes[sw] = true
			}
			fv := filteredView{v: v, edges: removedEdges, nodes: removedNodes}
			spurPath, err := mapShortestPath(fv, spur, dst, nil)
			if err != nil {
				continue
			}
			total := append(root[:len(root)-1].Clone(), spurPath...)
			if key := pathKey(total); !seen[key] {
				seen[key] = true
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lessPath(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

// pathKey returns the big-endian byte encoding of a path — the hash-set key
// mapKShortestPaths dedups with.
func pathKey(p SwitchPath) string {
	b := make([]byte, 4*len(p))
	for i, sw := range p {
		binary.BigEndian.PutUint32(b[4*i:], uint32(sw))
	}
	return string(b)
}

func lessPath(a, b SwitchPath) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// filteredView hides a set of edges and nodes from an underlying view.
type filteredView struct {
	v     neighborView
	edges map[[2]SwitchID]bool
	nodes map[SwitchID]bool
}

func (f filteredView) Neighbors(id SwitchID) []Neighbor {
	if f.nodes[id] {
		return nil
	}
	var out []Neighbor
	for _, nb := range f.v.Neighbors(id) {
		if f.nodes[nb.Sw] || f.edges[[2]SwitchID{id, nb.Sw}] {
			continue
		}
		out = append(out, nb)
	}
	return out
}

// hostView is a View that also resolves host attachments and routes
// between hosts: Topology and Subgraph.
type hostView interface {
	View
	HostAt(h MAC) (HostAttach, error)
	HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error)
}

// mapAttach resolves both hosts the way HostPath and KHostPaths do.
func mapAttach(v hostView, src, dst MAC) (HostAttach, HostAttach, error) {
	sat, err := v.HostAt(src)
	if err != nil {
		return sat, sat, err
	}
	dat, err := v.HostAt(dst)
	return sat, dat, err
}

// mapTags encodes a switch path with the oracle's adjacency: the first
// (lowest-ordered) port toward each next hop, then the access port.
func mapTags(ov neighborView, sp SwitchPath, access Port) packet.Path {
	tags := make(packet.Path, 0, len(sp))
	for i := 0; i+1 < len(sp); i++ {
		for _, nb := range ov.Neighbors(sp[i]) {
			if nb.Sw == sp[i+1] {
				tags = append(tags, nb.Port)
				break
			}
		}
	}
	return append(tags, access)
}

// mapHostPath is HostPath on the oracle.
func mapHostPath(v hostView, src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	sat, dat, err := mapAttach(v, src, dst)
	if err != nil {
		return nil, err
	}
	ov := oracleView(v)
	sp, err := mapShortestPath(ov, sat.Switch, dat.Switch, rng)
	if err != nil {
		return nil, err
	}
	return mapTags(ov, sp, dat.Port), nil
}

// mapKHostPaths is Subgraph.KHostPaths on the oracle.
func mapKHostPaths(v hostView, src, dst MAC, k int) ([]packet.Path, error) {
	sat, dat, err := mapAttach(v, src, dst)
	if err != nil {
		return nil, err
	}
	ov := oracleView(v)
	sps, err := mapKShortestPaths(ov, sat.Switch, dat.Switch, k)
	if err != nil {
		return nil, err
	}
	out := make([]packet.Path, len(sps))
	for i, sp := range sps {
		out[i] = mapTags(ov, sp, dat.Port)
	}
	return out, nil
}
