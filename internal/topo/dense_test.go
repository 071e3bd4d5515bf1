package topo

import (
	"math/rand"
	"reflect"
	"testing"
)

// denseTestTopos builds a few structurally different fabrics the dense
// kernels are checked against their map-based counterparts on.
func denseTestTopos(t testing.TB) map[string]*Topology {
	t.Helper()
	out := make(map[string]*Topology)
	ft, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatalf("fat-tree: %v", err)
	}
	out["fat-tree"] = ft
	ls, err := LeafSpine(3, 6, 2, 0)
	if err != nil {
		t.Fatalf("leaf-spine: %v", err)
	}
	out["leaf-spine"] = ls
	rr, err := RandomRegular(24, 4, 2, 0, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("random-regular: %v", err)
	}
	out["random-regular"] = rr
	return out
}

func idxPathToIDs(g *DenseGraph, p []int32) SwitchPath {
	out := make(SwitchPath, len(p))
	for i, idx := range p {
		out[i] = g.IDOf(idx)
	}
	return out
}

// TestDenseKernelsMatchMapKernels asserts the dense BFS/shortest-path/
// Dijkstra kernels return bit-identical answers to the map-based oracle in
// oracle_test.go — including the rng draw sequence on equal-cost ties.
func TestDenseKernelsMatchMapKernels(t *testing.T) {
	for name, tp := range denseTestTopos(t) {
		g := tp.Dense()
		sc := NewDenseScratch()
		ids := tp.SwitchIDs()
		for _, src := range ids {
			si, ok := g.IndexOf(src)
			if !ok {
				t.Fatalf("%s: switch %d missing from dense index", name, src)
			}
			// BFS distances.
			want := mapDistances(oracleView(tp), src)
			dist := g.BFSInto(sc, si)
			for i, d := range dist {
				wd, ok := want[g.IDOf(int32(i))]
				if !ok {
					wd = -1
				}
				if int(d) != wd {
					t.Fatalf("%s: dist %d->%d: dense %d, map %d", name, src, g.IDOf(int32(i)), d, wd)
				}
			}
			for _, dst := range ids {
				di, _ := g.IndexOf(dst)
				// Deterministic shortest path.
				wantP, wantErr := mapShortestPath(oracleView(tp), src, dst, nil)
				gotIdx, gotErr := g.ShortestPathInto(sc, si, di, nil, nil)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: %d->%d err mismatch: map %v, dense %v", name, src, dst, wantErr, gotErr)
				}
				if wantErr == nil && !wantP.Equal(idxPathToIDs(g, gotIdx)) {
					t.Fatalf("%s: %d->%d path mismatch: map %v, dense %v", name, src, dst, wantP, idxPathToIDs(g, gotIdx))
				}
				// Randomized shortest path: identical seeds must draw the
				// identical path.
				r1 := rand.New(rand.NewSource(int64(src)*1000 + int64(dst)))
				r2 := rand.New(rand.NewSource(int64(src)*1000 + int64(dst)))
				wantP, wantErr = mapShortestPath(oracleView(tp), src, dst, r1)
				gotIdx, gotErr = g.ShortestPathInto(sc, si, di, r2, nil)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: %d->%d rng err mismatch", name, src, dst)
				}
				if wantErr == nil && !wantP.Equal(idxPathToIDs(g, gotIdx)) {
					t.Fatalf("%s: %d->%d rng path mismatch: map %v, dense %v", name, src, dst, wantP, idxPathToIDs(g, gotIdx))
				}
			}
		}
		// Weighted paths with some links penalized, as backup computation does.
		for trial := 0; trial < 20; trial++ {
			r := rand.New(rand.NewSource(int64(trial)))
			src := ids[r.Intn(len(ids))]
			dst := ids[r.Intn(len(ids))]
			penal := [2]SwitchID{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]}
			wantP, wantErr := mapWeightedShortestPath(oracleView(tp), src, dst, func(a, b SwitchID) float64 {
				if (a == penal[0] && b == penal[1]) || (a == penal[1] && b == penal[0]) {
					return 10
				}
				return 1
			})
			si, _ := g.IndexOf(src)
			di, _ := g.IndexOf(dst)
			pi0, _ := g.IndexOf(penal[0])
			pi1, _ := g.IndexOf(penal[1])
			gotIdx, gotErr := g.WeightedShortestPathInto(sc, si, di, func(a, b int32) float64 {
				if (a == pi0 && b == pi1) || (a == pi1 && b == pi0) {
					return 10
				}
				return 1
			}, nil)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: weighted %d->%d err mismatch: map %v, dense %v", name, src, dst, wantErr, gotErr)
			}
			if wantErr == nil && !wantP.Equal(idxPathToIDs(g, gotIdx)) {
				t.Fatalf("%s: weighted %d->%d mismatch: map %v, dense %v", name, src, dst, wantP, idxPathToIDs(g, gotIdx))
			}
		}
	}
}

// TestDenseKernelsAllocFree pins the tentpole property: with a warm scratch,
// the BFS, shortest-path and Dijkstra kernels allocate nothing.
func TestDenseKernelsAllocFree(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := tp.Dense()
	sc := NewDenseScratch()
	hosts := tp.Hosts()
	si, _ := g.IndexOf(hosts[0].Switch)
	di, _ := g.IndexOf(hosts[len(hosts)-1].Switch)
	unit := func(a, b int32) float64 { return 1 }
	warm := func() {
		g.BFSInto(sc, si)
		var err error
		sc.path, err = g.ShortestPathInto(sc, si, di, nil, sc.path)
		if err != nil {
			t.Fatal(err)
		}
		sc.pathB, err = g.WeightedShortestPathInto(sc, si, di, unit, sc.pathB)
		if err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if n := testing.AllocsPerRun(200, warm); n != 0 {
		t.Fatalf("dense kernels allocate %v allocs/op with warm scratch, want 0", n)
	}
}

func TestBitset(t *testing.T) {
	var b Bitset
	b.Reset(130)
	for _, i := range []int32{0, 63, 64, 129} {
		if b.Has(i) {
			t.Fatalf("bit %d set after reset", i)
		}
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Has(1) || b.Has(65) {
		t.Fatal("unset bits reported set")
	}
	b.Reset(130)
	if b.Has(0) || b.Has(129) {
		t.Fatal("reset did not clear bits")
	}
}

// TestTopologyGeneration pins the invalidation contract the route service
// relies on: every mutation bumps the generation and drops the cached dense
// snapshot; reads do not.
func TestTopologyGeneration(t *testing.T) {
	tp := New()
	g0 := tp.Generation()
	if err := tp.AddSwitch(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSwitch(2, 4); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == g0 {
		t.Fatal("AddSwitch did not bump generation")
	}
	if err := tp.Connect(1, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	gc := tp.Generation()
	d1 := tp.Dense()
	if tp.Dense() != d1 {
		t.Fatal("Dense not cached across reads")
	}
	if tp.Generation() != gc {
		t.Fatal("reads bumped generation")
	}
	if err := tp.Disconnect(1, 1); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == gc {
		t.Fatal("Disconnect did not bump generation")
	}
	if tp.Dense() == d1 {
		t.Fatal("Dense snapshot not invalidated by mutation")
	}
	if err := tp.AttachHost(MAC{1}, 1, 1); err != nil {
		t.Fatal(err)
	}
	g1 := tp.Generation()
	if err := tp.DetachHost(MAC{1}); err != nil {
		t.Fatal(err)
	}
	if tp.Generation() == g1 {
		t.Fatal("DetachHost did not bump generation")
	}
}

// TestBuildPathGraphScratchMatchesBuild asserts that scratch reuse does not
// change Algorithm 1's output.
func TestBuildPathGraphScratchMatchesBuild(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	sc := NewDenseScratch()
	for i := 0; i < len(hosts); i++ {
		for j := 0; j < len(hosts); j++ {
			if i == j {
				continue
			}
			seed := int64(i*100 + j)
			a, aErr := BuildPathGraph(tp, hosts[i].Host, hosts[j].Host, PathGraphOptions{}, rand.New(rand.NewSource(seed)))
			b, bErr := BuildPathGraphScratch(tp, hosts[i].Host, hosts[j].Host, PathGraphOptions{}, rand.New(rand.NewSource(seed)), sc)
			if aErr != nil || bErr != nil {
				t.Fatalf("build errors: %v, %v", aErr, bErr)
			}
			am := a.Marshal()
			bm := b.Marshal()
			if string(am) != string(bm) {
				t.Fatalf("pair %d->%d: scratch build differs from fresh build", i, j)
			}
		}
	}
}

// BenchmarkKShortestPathsK8 exercises the Yen's duplicate filter at k=8,
// where the former O(k²·n) containsPath scans dominated.
func BenchmarkKShortestPathsK8(b *testing.B) {
	tp, err := FatTree(6, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	hosts := tp.Hosts()
	src, dst := hosts[0].Switch, hosts[len(hosts)-1].Switch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KShortestPaths(tp, src, dst, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// hostCaches builds host-style TopoCaches over each test fabric: the union
// of a few random path graphs, as an agent accumulates them from path
// responses, minus a few edges removed by (switch, port) the way failure
// patches remove them.
func hostCaches(t testing.TB) map[string]*Subgraph {
	t.Helper()
	out := make(map[string]*Subgraph)
	for name, tp := range denseTestTopos(t) {
		hosts := tp.Hosts()
		r := rand.New(rand.NewSource(1))
		s := NewSubgraph()
		for i := 0; i < 5; i++ {
			a, b := hosts[r.Intn(len(hosts))], hosts[r.Intn(len(hosts))]
			pg, err := BuildPathGraph(tp, a.Host, b.Host, PathGraphOptions{}, r)
			if err != nil {
				t.Fatalf("%s: path graph: %v", name, err)
			}
			s.Merge(pg.Graph)
		}
		sws := s.Switches()
		for i := 0; i < 3; i++ {
			sw := sws[r.Intn(len(sws))]
			if nbs := s.Neighbors(sw); len(nbs) > 0 {
				s.RemoveEdgeByPort(sw, nbs[r.Intn(len(nbs))].Port)
			}
		}
		out[name+"/cache"] = s
	}
	return out
}

// TestKShortestMatchesOracle pins the dense Yen's to the map-based oracle:
// identical paths and identical errors for k=1..8 between every pair of
// switches (plus one unknown switch), on whole fabrics and on host caches.
// The oracle runs once per pair at k=8: its loop only appends, so its
// answer for a smaller k is that run's first k paths.
func TestKShortestMatchesOracle(t *testing.T) {
	views := make(map[string]View)
	for name, tp := range denseTestTopos(t) {
		views[name] = tp
	}
	for name, s := range hostCaches(t) {
		views[name] = s
	}
	for name, v := range views {
		ov := oracleView(v)
		ids := append(append([]SwitchID(nil), v.Dense().ids...), 1<<30)
		for _, src := range ids {
			for _, dst := range ids {
				all, wantErr := mapKShortestPaths(ov, src, dst, 8)
				for k := 1; k <= 8; k++ {
					want := all[:min(k, len(all))]
					if wantErr != nil {
						want = nil
					}
					got, gotErr := KShortestPaths(v, src, dst, k)
					if gotErr != wantErr || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d->%d k=%d: dense %v (%v), oracle %v (%v)",
							name, src, dst, k, got, gotErr, want, wantErr)
					}
				}
			}
		}
	}
}

// TestSubgraphRoutesMatchOracle checks the seeded-rng shortest path on host
// cache snapshots against the oracle — identical seeds must draw identical
// paths — and HostPath/KHostPaths between every pair of cached hosts, and
// Topology.HostPath on whole fabrics.
func TestSubgraphRoutesMatchOracle(t *testing.T) {
	for name, s := range hostCaches(t) {
		ov := oracleView(s)
		ids := s.Switches()
		for _, src := range ids {
			for _, dst := range ids {
				seed := int64(src)*1000 + int64(dst)
				want, wantErr := mapShortestPath(ov, src, dst, rand.New(rand.NewSource(seed)))
				got, gotErr := ShortestPath(s, src, dst, rand.New(rand.NewSource(seed)))
				if gotErr != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d->%d: dense %v (%v), oracle %v (%v)", name, src, dst, got, gotErr, want, wantErr)
				}
			}
		}
		checkHostRoutes(t, name, s, s.Hosts(), true)
	}
	for name, tp := range denseTestTopos(t) {
		checkHostRoutes(t, name, tp, tp.Hosts(), false)
	}
}

// checkHostRoutes compares HostPath (and, on a Subgraph, KHostPaths) with
// the oracle between every pair of the given hosts.
func checkHostRoutes(t *testing.T, name string, v hostView, hosts []HostAttach, kPaths bool) {
	t.Helper()
	for i, a := range hosts {
		for j, b := range hosts {
			seed := int64(i*len(hosts) + j)
			want, wantErr := mapHostPath(v, a.Host, b.Host, rand.New(rand.NewSource(seed)))
			got, gotErr := v.HostPath(a.Host, b.Host, rand.New(rand.NewSource(seed)))
			if gotErr != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: HostPath %v->%v: dense %v (%v), oracle %v (%v)", name, a.Host, b.Host, got, gotErr, want, wantErr)
			}
			if !kPaths {
				continue
			}
			wantK, wantErr := mapKHostPaths(v, a.Host, b.Host, 4)
			gotK, gotErr := v.(*Subgraph).KHostPaths(a.Host, b.Host, 4)
			if gotErr != wantErr || !reflect.DeepEqual(gotK, wantK) {
				t.Fatalf("%s: KHostPaths %v->%v: dense %v (%v), oracle %v (%v)", name, a.Host, b.Host, gotK, gotErr, wantK, wantErr)
			}
		}
	}
}

// TestSubgraphSnapshotReuse pins the invalidation contract of the cached
// Subgraph snapshot: mutations that leave the adjacency as it was keep the
// snapshot pointer (a TopoCache re-merging a path graph it already holds
// must not rebuild), ones that change it replace the snapshot.
func TestSubgraphSnapshotReuse(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	pg, err := BuildPathGraph(tp, hosts[0].Host, hosts[1].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := pg.Graph.Clone()
	d := cache.Dense()
	cache.Merge(pg.Graph)
	cache.AddHost(hosts[0])
	a, b := pg.Primary[0], pg.Primary[1]
	pa, _ := cache.PortToward(a, b)
	pb, _ := cache.PortToward(b, a)
	cache.AddEdge(a, pa, b, pb)
	cache.RemoveEdge(a, 1<<30)
	cache.RemoveSwitch(1 << 30)
	if cache.Dense() != d {
		t.Fatal("mutations that changed nothing dropped the snapshot")
	}
	far, err := BuildPathGraph(tp, hosts[0].Host, hosts[len(hosts)-1].Host, PathGraphOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	links := cache.NumLinks()
	cache.Merge(far.Graph)
	if cache.NumLinks() == links {
		t.Fatal("cross-pod path graph taught the cache no edge")
	}
	d2 := cache.Dense()
	if d2 == d {
		t.Fatal("Merge that added edges kept the stale snapshot")
	}
	for _, mutate := range []func(){
		func() { cache.AddEdge(a, pa+40, b, pb) },
		func() { cache.RemoveEdgeByPort(a, pa+40) },
		func() { cache.RemoveSwitch(b) },
	} {
		mutate()
		if d3 := cache.Dense(); d3 == d2 {
			t.Fatal("adjacency change kept the stale snapshot")
		} else {
			d2 = d3
		}
	}
}

// TestWarmRouteDerivationAllocs guards the route-derivation hot paths: a
// warm Topology.HostPath allocates only the returned tag path, and a warm
// KShortestPaths on an unchanged snapshot only the returned paths and the
// slice holding them.
func TestWarmRouteDerivationAllocs(t *testing.T) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tp.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	rng := rand.New(rand.NewSource(1))
	hostPath := func() {
		if _, err := tp.HostPath(src.Host, dst.Host, rng); err != nil {
			t.Fatal(err)
		}
	}
	hostPath()
	if n := testing.AllocsPerRun(200, hostPath); n != 1 {
		t.Fatalf("warm Topology.HostPath: %v allocs/op, want 1 (the tag path)", n)
	}
	cache := NewSubgraph()
	for _, h := range hosts[len(hosts)/2:] {
		pg, err := BuildPathGraph(tp, src.Host, h.Host, PathGraphOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cache.Merge(pg.Graph)
	}
	for name, v := range map[string]View{"topology": tp, "cache": cache} {
		var paths int
		kPaths := func() {
			ps, err := KShortestPaths(v, src.Switch, dst.Switch, 8)
			if err != nil {
				t.Fatal(err)
			}
			paths = len(ps)
		}
		kPaths()
		if n := testing.AllocsPerRun(200, kPaths); n != float64(paths+1) {
			t.Fatalf("%s: warm KShortestPaths: %v allocs/op, want %d (%d paths + slice)", name, n, paths+1, paths)
		}
	}
}

// FuzzPathGraphRoutes feeds path-response bytes through the decoder into a
// TopoCache and derives routes from it, dense against oracle: the k=4 path
// set and the single HostPath must match (paths and errors) between the
// response's endpoints and the cached hosts, and nothing may panic.
func FuzzPathGraphRoutes(f *testing.F) {
	tp, err := FatTree(4, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	hosts := tp.Hosts()
	for i := 0; i < 4; i++ {
		pg, err := BuildPathGraph(tp, hosts[i].Host, hosts[len(hosts)-1-i].Host, PathGraphOptions{}, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pg.Marshal())
	}
	// Shapes BuildPathGraph never emits but the wire can carry: switch 3
	// known only as 2's neighbour, a self-loop on 1, and a host on
	// switch 77, which has no adjacency at all.
	odd := NewSubgraph()
	odd.AddEdge(1, 1, 2, 1)
	odd.adj[2][3] = 2
	odd.adj[1][1] = 5
	odd.AddHost(HostAttach{Host: MAC{1}, Switch: 1, Port: 9})
	odd.hosts[MAC{3}] = HostAttach{Host: MAC{3}, Switch: 3, Port: 9}
	odd.hosts[MAC{7}] = HostAttach{Host: MAC{7}, Switch: 77, Port: 1}
	f.Add((&PathGraph{Src: MAC{1}, Dst: MAC{3}, Primary: SwitchPath{1, 2, 3}, Graph: odd}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		pg, err := UnmarshalPathGraph(b)
		if err != nil {
			return
		}
		cache := NewSubgraph()
		cache.Merge(pg.Graph)
		macs := []MAC{pg.Src, pg.Dst}
		for i, h := range cache.Hosts() {
			if i == 6 {
				break
			}
			macs = append(macs, h.Host)
		}
		for i, a := range macs {
			for j, c := range macs {
				want, wantErr := mapKHostPaths(cache, a, c, 4)
				got, gotErr := cache.KHostPaths(a, c, 4)
				if gotErr != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("KHostPaths %v->%v: dense %v (%v), oracle %v (%v)", a, c, got, gotErr, want, wantErr)
				}
				seed := int64(i*len(macs) + j)
				wantP, wantErr := mapHostPath(cache, a, c, rand.New(rand.NewSource(seed)))
				gotP, gotErr := cache.HostPath(a, c, rand.New(rand.NewSource(seed)))
				if gotErr != wantErr || !reflect.DeepEqual(gotP, wantP) {
					t.Fatalf("HostPath %v->%v: dense %v (%v), oracle %v (%v)", a, c, gotP, gotErr, wantP, wantErr)
				}
			}
		}
	})
}
