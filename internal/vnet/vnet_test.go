package vnet

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"dumbnet/internal/packet"
	"dumbnet/internal/topo"
)

func deploy(t *testing.T) (*topo.Topology, *Manager, []packet.MAC) {
	t.Helper()
	tp, err := topo.Testbed()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(tp, topo.PathGraphOptions{}, 1)
	hosts := tp.Hosts()
	macs := make([]packet.MAC, 0, len(hosts))
	for _, h := range hosts {
		macs = append(macs, h.Host)
	}
	return tp, m, macs
}

func TestCreateTenantAndView(t *testing.T) {
	_, m, macs := deploy(t)
	tenA, err := m.CreateTenant("a", macs[0:4])
	if err != nil {
		t.Fatal(err)
	}
	if !tenA.Contains(macs[0]) || tenA.Contains(macs[10]) {
		t.Fatal("membership wrong")
	}
	if len(tenA.Hosts()) != 4 {
		t.Fatalf("hosts = %d", len(tenA.Hosts()))
	}
	if tenA.View().NumSwitches() == 0 {
		t.Fatal("empty view")
	}
	// The view must route between members.
	if _, err := m.PathFor("a", macs[0], macs[3]); err != nil {
		t.Fatalf("no path in slice: %v", err)
	}
}

func TestTenantErrors(t *testing.T) {
	_, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[:1]); !errors.Is(err, ErrTooFewHosts) {
		t.Fatalf("singleton: %v", err)
	}
	if _, err := m.CreateTenant("a", macs[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateTenant("a", macs[3:6]); !errors.Is(err, ErrDupTenant) {
		t.Fatalf("dup: %v", err)
	}
	if _, err := m.Tenant("nope"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("missing: %v", err)
	}
	if err := m.DeleteTenant("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTenant("a"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestVerifyRouteInsideSlice(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:6]); err != nil {
		t.Fatal(err)
	}
	tags, err := m.PathFor("a", macs[0], macs[5])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyRoute("a", macs[0], macs[5], tags); err != nil {
		t.Fatalf("slice route rejected: %v", err)
	}
	// The route must also be valid on the real topology.
	if err := tp.VerifyTags(macs[0], macs[5], tags); err != nil {
		t.Fatalf("slice route invalid on fabric: %v", err)
	}
}

func TestVerifyRouteRejectsForeignEndpoints(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A perfectly valid fabric route to a non-member must be rejected.
	tags, err := tp.HostPath(macs[0], macs[10], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyRoute("a", macs[0], macs[10], tags); !errors.Is(err, ErrForeignHost) {
		t.Fatalf("foreign endpoint: %v", err)
	}
}

func TestVerifyRouteRejectsEscapeRoutes(t *testing.T) {
	_, m, macs := deploy(t)
	// Two tenants on disjoint host sets.
	if _, err := m.CreateTenant("a", macs[0:4]); err != nil {
		t.Fatal(err)
	}
	// A bogus route between members that wanders out of the slice.
	if err := m.VerifyRoute("a", macs[0], macs[3], packet.Path{60, 61, 62}); !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("escape route: %v", err)
	}
	// Empty route.
	if err := m.VerifyRoute("a", macs[0], macs[3], nil); !errors.Is(err, ErrOutsideSlice) {
		t.Fatalf("empty route: %v", err)
	}
}

func TestTenantIsolationOfViews(t *testing.T) {
	tp, m, macs := deploy(t)
	// Hosts 0-4 live on leaf 3 (testbed layout): a same-leaf tenant's view
	// should not include every switch the full fabric has.
	tenA, err := m.CreateTenant("a", macs[0:4])
	if err != nil {
		t.Fatal(err)
	}
	if tenA.View().NumSwitches() >= tp.NumSwitches() {
		t.Fatalf("tenant view covers whole fabric: %d switches", tenA.View().NumSwitches())
	}
}

func TestApplyLinkDownPatchesViews(t *testing.T) {
	_, m, macs := deploy(t)
	ten, err := m.CreateTenant("a", []packet.MAC{macs[0], macs[20]})
	if err != nil {
		t.Fatal(err)
	}
	before := ten.View().NumLinks()
	// Kill a leaf-spine link inside the view: find one from the view.
	var sw packet.SwitchID
	var port packet.Tag
	found := false
	for _, id := range []packet.SwitchID{1, 2} {
		for _, nb := range ten.View().Neighbors(id) {
			sw, port = id, nb.Port
			found = true
			break
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no spine link in view")
	}
	m.ApplyLinkDown(sw, port)
	if ten.View().NumLinks() != before-1 {
		t.Fatalf("links %d -> %d, want -1", before, ten.View().NumLinks())
	}
}

// TestConcurrentColdSnapshotReads races readers into the lazily built dense
// snapshots: several goroutines ask PathGraphFor on one tenant whose view
// has never been routed on (they share the manager's read lock), and call
// HostPath on a frozen master whose snapshot is still cold. Run under -race;
// every reader must also see the answers a sequential run gives.
func TestConcurrentColdSnapshotReads(t *testing.T) {
	tp, m, macs := deploy(t)
	if _, err := m.CreateTenant("a", macs[0:6]); err != nil {
		t.Fatal(err)
	}
	frozen := tp.Clone()
	type answer struct {
		pgs   [][]byte
		paths []packet.Path
	}
	read := func() (answer, error) {
		var out answer
		for i := 1; i < 6; i++ {
			pg, err := m.PathGraphFor("a", macs[0], macs[i])
			if err != nil {
				return out, err
			}
			out.pgs = append(out.pgs, pg.Marshal())
			p, err := frozen.HostPath(macs[i], macs[len(macs)-i], nil)
			if err != nil {
				return out, err
			}
			out.paths = append(out.paths, p)
		}
		return out, nil
	}
	const readers = 8
	got := make([]answer, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r], errs[r] = read()
		}(r)
	}
	wg.Wait()
	want, err := read()
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("reader %d: %v", r, errs[r])
		}
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("reader %d saw different routes than a sequential run", r)
		}
	}
}
