package topo

import (
	"fmt"
	"math/rand"

	"dumbnet/internal/packet"
)

// View is a read-only switch graph the routing kernels run on. Both the
// full Topology and a Subgraph (a host's TopoCache, a path graph's body)
// implement it by handing out their cached CSR snapshot, so hosts route
// within their cache and the controller within the global view over the
// same kernels.
type View interface {
	Dense() *DenseGraph
}

// SwitchPath is a hop-by-hop sequence of switch IDs, source-side first.
type SwitchPath []SwitchID

// Equal reports element-wise equality.
func (p SwitchPath) Equal(o SwitchPath) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if p[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone copies the path.
func (p SwitchPath) Clone() SwitchPath { return append(SwitchPath(nil), p...) }

// Distances returns BFS hop counts from src to every reachable switch.
func Distances(v View, src SwitchID) map[SwitchID]int {
	g := v.Dense()
	si, ok := g.index[src]
	if !ok {
		return map[SwitchID]int{src: 0}
	}
	sc := getScratch()
	defer putScratch(sc)
	dist := g.BFSInto(sc, si)
	out := make(map[SwitchID]int, len(sc.queue))
	for _, i := range sc.queue {
		out[g.ids[i]] = int(dist[i])
	}
	return out
}

// ShortestPath returns one shortest switch path from src to dst. When rng is
// non-nil, ties between equal-cost next hops are broken uniformly at random
// (paper §4.3: "randomizes the choice for equal cost links ... useful for
// load balancing"); with a nil rng the first neighbor in Neighbors order
// wins, making the result deterministic.
func ShortestPath(v View, src, dst SwitchID, rng *rand.Rand) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	g := v.Dense()
	si, di, ok := g.pair(src, dst)
	if !ok {
		return nil, ErrNoPath
	}
	sc := getScratch()
	defer putScratch(sc)
	p, err := g.ShortestPathInto(sc, si, di, rng, sc.path)
	if err != nil {
		return nil, err
	}
	sc.path = p
	return g.idPath(p), nil
}

// WeightedShortestPath runs Dijkstra with per-link weights given by cost
// (defaulting to 1 when cost returns 0 or less). Used for backup-path
// computation, where primary-path links are made expensive (§4.3).
func WeightedShortestPath(v View, src, dst SwitchID, cost func(a, b SwitchID) float64) (SwitchPath, error) {
	if src == dst {
		return SwitchPath{src}, nil
	}
	g := v.Dense()
	si, di, ok := g.pair(src, dst)
	if !ok {
		return nil, ErrNoPath
	}
	sc := getScratch()
	defer putScratch(sc)
	p, err := g.WeightedShortestPathInto(sc, si, di, func(a, b int32) float64 {
		return cost(g.ids[a], g.ids[b])
	}, sc.pathB)
	if err != nil {
		return nil, err
	}
	sc.pathB = p
	return g.idPath(p), nil
}

// KShortestPaths returns up to k loop-free shortest paths from src to dst in
// ascending length order (Yen's algorithm over the unweighted view). Paths
// of equal length are ordered lexicographically by switch ID.
func KShortestPaths(v View, src, dst SwitchID, k int) ([]SwitchPath, error) {
	if src == dst {
		return []SwitchPath{{src}}, nil
	}
	g := v.Dense()
	si, di, ok := g.pair(src, dst)
	if !ok {
		return nil, ErrNoPath
	}
	sc := getScratch()
	defer putScratch(sc)
	return g.KShortestPaths(sc, si, di, k)
}

// hostPath routes between two host attachments over snapshot g: one
// shortest switch path, encoded as each hop's out-port followed by dat's
// access port.
func hostPath(g *DenseGraph, sat, dat HostAttach, rng *rand.Rand) (packet.Path, error) {
	if sat.Switch == dat.Switch {
		return packet.Path{dat.Port}, nil
	}
	si, di, ok := g.pair(sat.Switch, dat.Switch)
	if !ok {
		return nil, ErrNoPath
	}
	sc := getScratch()
	defer putScratch(sc)
	p, err := g.ShortestPathInto(sc, si, di, rng, sc.path)
	if err != nil {
		return nil, err
	}
	sc.path = p
	tags := make(packet.Path, len(p))
	for i := 0; i+1 < len(p); i++ {
		tags[i], _ = g.PortBetween(p[i], p[i+1])
	}
	tags[len(p)-1] = dat.Port
	return tags, nil
}

// TagsForSwitchPath encodes a switch-level path into the outgoing-port tag
// sequence a packet header carries: for each hop the local port toward the
// next switch, and finally the port where the destination host attaches.
func (t *Topology) TagsForSwitchPath(sp SwitchPath, dst MAC) (packet.Path, error) {
	if len(sp) == 0 {
		return nil, ErrNoPath
	}
	at, err := t.HostAt(dst)
	if err != nil {
		return nil, err
	}
	if at.Switch != sp[len(sp)-1] {
		return nil, fmt.Errorf("%w: path ends at switch %d, host on %d", ErrPathInvalid, sp[len(sp)-1], at.Switch)
	}
	tags := make(packet.Path, 0, len(sp))
	for i := 0; i+1 < len(sp); i++ {
		p, err := t.PortToward(sp[i], sp[i+1])
		if err != nil {
			return nil, fmt.Errorf("%w: no link %d->%d", ErrNoLink, sp[i], sp[i+1])
		}
		tags = append(tags, p)
	}
	tags = append(tags, at.Port)
	return tags, nil
}

// HostPath computes one source-routed tag path from host src to host dst
// over the topology, with randomized equal-cost choice when rng != nil. It
// reads only the dense snapshot and the host table, so goroutines may share
// a frozen topology's HostPath.
func (t *Topology) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	sat, err := t.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := t.HostAt(dst)
	if err != nil {
		return nil, err
	}
	return hostPath(t.Dense(), sat, dat, rng)
}

// WalkTags follows a tag path starting from the switch where host src
// attaches and returns the endpoint the final tag reaches. It is the host
// agent's path verifier (§6.1): a route is accepted only if walking it lands
// on the intended destination.
func (t *Topology) WalkTags(src MAC, tags packet.Path) (Endpoint, error) {
	at, err := t.HostAt(src)
	if err != nil {
		return Endpoint{}, err
	}
	cur := at.Switch
	for i, tag := range tags {
		ep, err := t.EndpointAt(cur, tag)
		if err != nil {
			return Endpoint{}, err
		}
		switch ep.Kind {
		case EndpointNone:
			return Endpoint{}, fmt.Errorf("%w: hop %d dead port %d on switch %d", ErrPathInvalid, i, tag, cur)
		case EndpointHost:
			if i != len(tags)-1 {
				return Endpoint{}, fmt.Errorf("%w: reached host mid-path at hop %d", ErrPathInvalid, i)
			}
			return ep, nil
		case EndpointSwitch:
			if i == len(tags)-1 {
				return Endpoint{}, fmt.Errorf("%w: path ends on a switch-to-switch link", ErrPathInvalid)
			}
			cur = ep.Switch
		}
	}
	return Endpoint{}, fmt.Errorf("%w: empty path", ErrPathInvalid)
}

// VerifyTags reports whether tags routes src's packets to dst.
func (t *Topology) VerifyTags(src, dst MAC, tags packet.Path) error {
	ep, err := t.WalkTags(src, tags)
	if err != nil {
		return err
	}
	if ep.Kind != EndpointHost || ep.Host != dst {
		return fmt.Errorf("%w: path reaches %v, want %v", ErrPathInvalid, ep.Host, dst)
	}
	return nil
}

// ReverseTags computes the reverse tag path for a forward path from src to
// dst (ports differ per direction, so this requires topology knowledge).
func (t *Topology) ReverseTags(src, dst MAC, tags packet.Path) (packet.Path, error) {
	sat, err := t.HostAt(src)
	if err != nil {
		return nil, err
	}
	if err := t.VerifyTags(src, dst, tags); err != nil {
		return nil, err
	}
	// Collect the switch sequence along the forward path.
	seq := SwitchPath{sat.Switch}
	cur := sat.Switch
	for i := 0; i+1 < len(tags); i++ {
		ep, err := t.EndpointAt(cur, tags[i])
		if err != nil {
			return nil, err
		}
		cur = ep.Switch
		seq = append(seq, cur)
	}
	rev := make(SwitchPath, len(seq))
	for i, sw := range seq {
		rev[len(seq)-1-i] = sw
	}
	return t.TagsForSwitchPath(rev, src)
}
