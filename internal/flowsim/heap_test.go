package flowsim

import (
	"math"
	"math/rand"
	"testing"
)

// bigFabric builds nLinks equal-capacity links (many exact share ties)
// and a random flow population dense enough that the flow↔link sharing
// graph has one component spanning most links, i.e. well above
// scanThreshold, so settle runs the heap search.
func bigFabric(rng *rand.Rand, nLinks, nFlows int) (*Network, *Simulator, []*Flow) {
	n := NewNetwork()
	for i := 0; i < nLinks; i++ {
		n.AddLink(100)
	}
	s := NewSimulator(n)
	flows := make([]*Flow, nFlows)
	for i := range flows {
		flows[i] = &Flow{ID: i, Path: randLinks(rng, nLinks), Size: float64(rng.Intn(5000) + 500)}
		if rng.Intn(4) == 0 {
			flows[i].RateCap = float64(rng.Intn(60) + 1)
		}
		s.Add(flows[i])
	}
	return n, s, flows
}

func randLinks(rng *rand.Rand, nLinks int) []LinkID {
	p := make([]LinkID, rng.Intn(4)+2)
	for i := range p {
		p[i] = LinkID(rng.Intn(nLinks))
	}
	return p
}

// dirtyComponentLinks returns how many links the next settle will
// re-waterfill: the closure of the dirty links over the sharing graph.
func dirtyComponentLinks(s *Simulator) int {
	seen := map[LinkID]bool{}
	queue := append([]LinkID(nil), s.dirty...)
	for _, l := range queue {
		seen[l] = true
	}
	for qi := 0; qi < len(queue); qi++ {
		for _, f := range s.linkFlows[int(queue[qi])] {
			for _, l := range f.uniq {
				if !seen[l] {
					seen[l] = true
					queue = append(queue, l)
				}
			}
		}
	}
	return len(queue)
}

// TestHeapWaterfillMatchesOracle is TestIncrementalMatchesOracle at a
// scale where components exceed scanThreshold links, so the heap search
// (not the scan) is compared bit-for-bit against allocate(). Equal link
// capacities make exact share ties common; capped flows, reroutes,
// SetCapacity(0)/restore and completions perturb the component between
// checks.
func TestHeapWaterfillMatchesOracle(t *testing.T) {
	const nLinks = 700
	heapRuns := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, s, live := bigFabric(rng, nLinks, 600)
		nextID := len(live)
		check := func(step int) {
			if dirtyComponentLinks(s) > scanThreshold {
				heapRuns++
			}
			s.settle()
			rates := make([]uint64, len(s.active))
			for i, f := range s.active {
				rates[i] = math.Float64bits(f.rate)
			}
			s.allocate()
			for i, f := range s.active {
				if got := math.Float64bits(f.rate); got != rates[i] {
					t.Fatalf("seed %d step %d flow %d: incremental rate %v != oracle %v",
						seed, step, f.ID, math.Float64frombits(rates[i]), f.rate)
				}
			}
		}
		check(-1)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				f := &Flow{ID: nextID, Path: randLinks(rng, nLinks), Size: float64(rng.Intn(5000) + 500)}
				nextID++
				if rng.Intn(3) == 0 {
					f.RateCap = float64(rng.Intn(60) + 1)
				}
				live = append(live, f)
				s.Add(f)
			case op < 5:
				if f := live[rng.Intn(len(live))]; !f.Finished {
					s.Reroute(f, randLinks(rng, nLinks))
				}
			case op < 8:
				l := LinkID(rng.Intn(nLinks))
				if n.Capacity(l) == 0 {
					n.SetCapacity(l, 100)
				} else {
					n.SetCapacity(l, 0)
				}
			default:
				s.RunUntil(s.Now() + rng.Float64()*20)
			}
			check(step)
		}
	}
	if heapRuns < 100 {
		t.Fatalf("heap search ran on %d checks, want >= 100", heapRuns)
	}
}

// resetComponent puts every active flow and every link it crosses back
// into the pre-waterfill state settle() builds, and returns the
// component's links and sorted capped flows.
func resetComponent(s *Simulator) (links []LinkID, capped []*Flow) {
	seen := map[LinkID]bool{}
	for _, f := range s.active {
		f.rate, f.fixed = 0, false
		if f.RateCap > 0 {
			capped = append(capped, f)
		}
		for _, l := range f.uniq {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	for _, l := range links {
		s.remCap[int(l)] = s.net.capacity[int(l)]
		s.nUnfixed[int(l)] = int32(len(s.linkFlows[int(l)]))
	}
	sortCapped(capped)
	return links, capped
}

// TestScanHeapParity runs waterfill's scan and heap bottleneck searches
// on the same component state, whatever its size, and requires
// bitwise-equal rates, so the two cannot drift apart.
func TestScanHeapParity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nLinks := 50 + rng.Intn(700)
		n, s, _ := bigFabric(rng, nLinks, nLinks)
		for i := 0; i < nLinks/10; i++ {
			n.SetCapacity(LinkID(rng.Intn(nLinks)), float64(rng.Intn(3))*50)
		}
		s.settle()
		links, capped := resetComponent(s)
		s.waterfill(links, capped, len(s.active), false)
		scan := make([]uint64, len(s.active))
		for i, f := range s.active {
			scan[i] = math.Float64bits(f.rate)
		}
		links, capped = resetComponent(s)
		s.waterfill(links, capped, len(s.active), true)
		for i, f := range s.active {
			if got := math.Float64bits(f.rate); got != scan[i] {
				t.Fatalf("seed %d (%d links) flow %d: heap rate %v != scan %v",
					seed, len(links), f.ID, f.rate, math.Float64frombits(scan[i]))
			}
		}
	}
}

// TestHeapSettleAllocFree guards the heap search's scratch reuse: once
// warm, re-settling a component above scanThreshold allocates nothing.
func TestHeapSettleAllocFree(t *testing.T) {
	n, s, _ := bigFabric(rand.New(rand.NewSource(1)), 700, 600)
	s.settle()
	l := s.active[0].uniq[0]
	n.SetCapacity(l, n.Capacity(l))
	if c := dirtyComponentLinks(s); c <= scanThreshold {
		t.Fatalf("component spans %d links, want > %d", c, scanThreshold)
	}
	resettle := func() {
		n.SetCapacity(l, n.Capacity(l))
		s.settle()
	}
	for i := 0; i < 10; i++ {
		resettle()
	}
	if allocs := testing.AllocsPerRun(100, resettle); allocs != 0 {
		t.Fatalf("warm heap settle allocates %v/op, want 0", allocs)
	}
}
