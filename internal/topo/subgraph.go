package topo

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"dumbnet/internal/packet"
)

// Subgraph is a lightweight partial view of the fabric: the structure hosts
// cache locally (TopoCache) and the body of a controller-issued path graph.
// Unlike Topology it stores only directed port mappings between switches it
// knows about, plus the host attachments it has learned.
type Subgraph struct {
	adj   map[SwitchID]map[SwitchID]Port // adj[a][b] = a's port toward b
	hosts map[MAC]HostAttach
	// dense caches the CSR snapshot of adj; mutations that change
	// adjacency drop it (see Dense).
	dense atomic.Pointer[DenseGraph]
}

// NewSubgraph returns an empty subgraph.
func NewSubgraph() *Subgraph {
	return &Subgraph{
		adj:   make(map[SwitchID]map[SwitchID]Port),
		hosts: make(map[MAC]HostAttach),
	}
}

// AddEdge records the bidirectional link a:pa <-> b:pb.
func (s *Subgraph) AddEdge(a SwitchID, pa Port, b SwitchID, pb Port) {
	s.setPort(a, b, pa)
	s.setPort(b, a, pb)
}

// row returns a's adjacency map, creating it (and dropping the snapshot).
func (s *Subgraph) row(a SwitchID) map[SwitchID]Port {
	m := s.adj[a]
	if m == nil {
		m = make(map[SwitchID]Port)
		s.adj[a] = m
		s.dense.Store(nil)
	}
	return m
}

// setPort records a's port toward b, dropping the snapshot on a change.
func (s *Subgraph) setPort(a, b SwitchID, p Port) {
	m := s.row(a)
	if q, ok := m[b]; !ok || q != p {
		m[b] = p
		s.dense.Store(nil)
	}
}

// RemoveEdge deletes the link between a and b in both directions.
func (s *Subgraph) RemoveEdge(a, b SwitchID) {
	_, ab := s.adj[a][b]
	_, ba := s.adj[b][a]
	if ab || ba {
		delete(s.adj[a], b)
		delete(s.adj[b], a)
		s.dense.Store(nil)
	}
}

// RemoveEdgeByPort deletes the cached link leaving switch sw through the
// given local port, if any, and reports whether an edge was removed. Link
// failure notifications identify links as (switch, port), so this is how
// hosts patch their TopoCache (§4.2).
func (s *Subgraph) RemoveEdgeByPort(sw SwitchID, p Port) bool {
	for nb, port := range s.adj[sw] {
		if port == p {
			s.RemoveEdge(sw, nb)
			return true
		}
	}
	return false
}

// RemoveSwitch deletes a switch and all links touching it.
func (s *Subgraph) RemoveSwitch(id SwitchID) {
	m, ok := s.adj[id]
	for nb := range m {
		delete(s.adj[nb], id)
	}
	if ok {
		delete(s.adj, id)
		s.dense.Store(nil)
	}
}

// RemoveHost forgets a cached host attachment. Tenant membership changes
// revoke attachments from caches that are no longer permitted to hold them.
func (s *Subgraph) RemoveHost(h MAC) {
	delete(s.hosts, h)
}

// AddHost records a host attachment.
func (s *Subgraph) AddHost(at HostAttach) {
	s.hosts[at.Host] = at
	s.row(at.Switch)
}

// HostAt returns a host's attachment point, if known.
func (s *Subgraph) HostAt(h MAC) (HostAttach, error) {
	at, ok := s.hosts[h]
	if !ok {
		return HostAttach{}, ErrNoHost
	}
	return at, nil
}

// HasSwitch reports whether the subgraph knows switch id.
func (s *Subgraph) HasSwitch(id SwitchID) bool {
	_, ok := s.adj[id]
	return ok
}

// NumSwitches reports how many switches the subgraph covers.
func (s *Subgraph) NumSwitches() int { return len(s.adj) }

// NumLinks reports how many links the subgraph covers.
func (s *Subgraph) NumLinks() int {
	n := 0
	for _, m := range s.adj {
		n += len(m)
	}
	return n / 2
}

// NumHosts reports how many host attachments are cached.
func (s *Subgraph) NumHosts() int { return len(s.hosts) }

// Switches lists the covered switch IDs in ascending order.
func (s *Subgraph) Switches() []SwitchID {
	out := make([]SwitchID, 0, len(s.adj))
	for id := range s.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Hosts returns the cached attachments (unsorted).
func (s *Subgraph) Hosts() []HostAttach {
	out := make([]HostAttach, 0, len(s.hosts))
	for _, at := range s.hosts {
		out = append(out, at)
	}
	// MAC-sorted so callers that fan frames out over this list (the stage-1
	// host flood) schedule sends in a deterministic order.
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Host[:], out[j].Host[:]) < 0
	})
	return out
}

// Neighbors returns id's adjacent switches in ascending ID order, read off
// the dense snapshot. The returned slice must not be mutated.
func (s *Subgraph) Neighbors(id SwitchID) []Neighbor { return s.Dense().Neighbors(id) }

// PortToward returns the local port on from toward adjacent switch to.
func (s *Subgraph) PortToward(from, to SwitchID) (Port, error) {
	if p, ok := s.adj[from][to]; ok {
		return p, nil
	}
	return 0, ErrNoLink
}

// Merge unions other into s. On conflicting port assignments the incoming
// value wins (newer information from the controller supersedes stale cache).
// A merge that teaches s no new switch or port keeps its snapshot.
func (s *Subgraph) Merge(other *Subgraph) {
	for a, m := range other.adj {
		s.row(a)
		for b, p := range m {
			s.setPort(a, b, p)
		}
	}
	for h, at := range other.hosts {
		s.hosts[h] = at
	}
}

// Clone deep-copies the subgraph.
func (s *Subgraph) Clone() *Subgraph {
	c := NewSubgraph()
	c.Merge(s)
	return c
}

// Dense returns the CSR snapshot of the switch graph: one row per switch in
// ascending ID order, switches known only as someone's neighbour included,
// each row in ascending neighbour-ID order (Neighbors' order). It is built
// on first use straight from the adjacency maps and published atomically,
// so goroutines sharing an unmutated subgraph may call it concurrently;
// only mutations that change the adjacency drop it.
func (s *Subgraph) Dense() *DenseGraph {
	if g := s.dense.Load(); g != nil {
		return g
	}
	index := make(map[SwitchID]int32, len(s.adj))
	edges := 0
	for a, m := range s.adj {
		index[a] = 0
		edges += len(m)
		for b := range m {
			index[b] = 0
		}
	}
	ids := make([]SwitchID, 0, len(index))
	for id := range index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	g := newDense(ids, index, edges)
	for _, a := range ids {
		for b, p := range s.adj[a] {
			g.nbr = append(g.nbr, index[b])
			g.nbs = append(g.nbs, Neighbor{Sw: b, Port: p})
		}
		g.endRow(false)
	}
	s.dense.Store(g)
	return g
}

// TagsForSwitchPath encodes a switch path into port tags using only cached
// knowledge, ending at dst's attachment port.
func (s *Subgraph) TagsForSwitchPath(sp SwitchPath, dst MAC) (packet.Path, error) {
	if len(sp) == 0 {
		return nil, ErrNoPath
	}
	at, err := s.HostAt(dst)
	if err != nil {
		return nil, err
	}
	if at.Switch != sp[len(sp)-1] {
		return nil, fmt.Errorf("%w: path ends at %d, host on %d", ErrPathInvalid, sp[len(sp)-1], at.Switch)
	}
	tags := make(packet.Path, 0, len(sp))
	for i := 0; i+1 < len(sp); i++ {
		p, err := s.PortToward(sp[i], sp[i+1])
		if err != nil {
			return nil, err
		}
		tags = append(tags, p)
	}
	return append(tags, at.Port), nil
}

// HostPath computes a tag path between two cached hosts over the subgraph.
func (s *Subgraph) HostPath(src, dst MAC, rng *rand.Rand) (packet.Path, error) {
	sat, err := s.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := s.HostAt(dst)
	if err != nil {
		return nil, err
	}
	return hostPath(s.Dense(), sat, dat, rng)
}

// KHostPaths returns up to k distinct tag paths between cached hosts,
// shortest first — the PathTable's per-destination path set (§5.2).
func (s *Subgraph) KHostPaths(src, dst MAC, k int) ([]packet.Path, error) {
	sat, err := s.HostAt(src)
	if err != nil {
		return nil, err
	}
	dat, err := s.HostAt(dst)
	if err != nil {
		return nil, err
	}
	sps, err := KShortestPaths(s, sat.Switch, dat.Switch, k)
	if err != nil {
		return nil, err
	}
	out := make([]packet.Path, 0, len(sps))
	for _, sp := range sps {
		tags, err := s.TagsForSwitchPath(sp, dst)
		if err != nil {
			return nil, err
		}
		out = append(out, tags)
	}
	return out, nil
}
