package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"dumbnet/internal/chaos"
	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/sim"
	"dumbnet/internal/telemetry"
	"dumbnet/internal/topo"
	"dumbnet/internal/workload"
)

// Every workload is closed-loop and driven from this one process: it
// issues a wave of work, drains the engine, and only then issues the next.
// Each is fixed work at a stated size, so its virtual-time results and
// digest depend on the seed alone and must repeat exactly run to run.

// sizes are a workload's counts. full is what the benchmark measures;
// smoke is the same code path at toy scale for the package tests.
type sizes struct {
	k, hostsPerEdge int
	peers, waves    int      // steady-rpc, first-touch
	width           int      // hibench-fluid shuffle peers per worker
	inputGB         float64  // hibench-fluid per-job input
	events          int      // chaos-heal scenario events
	pairChecks      int      // chaos-heal post-heal pairs checked
	cross, intra    int      // wan-federation conversations per fabric
	virtual         sim.Time // wan-federation measured virtual time
	probePairs      int      // Resolve probe pairs (traced runs)
}

type workloadDef struct {
	name, why, op string
	// job names the span whose median duration is workload.job_s.
	job         string
	full, smoke sizes
	run         func(r *round) error
}

var workloads = []*workloadDef{
	{
		name:  "steady-rpc",
		why:   "forwarding fast path: sim dispatch, links, dswitch, packet and host datapath at 9 B and 1400 B with route layers idle",
		op:    "one delivered message (a data message or an answered 9-byte echo)",
		job:   "wave",
		full:  sizes{k: 8, hostsPerEdge: 4, peers: 4, waves: 150, probePairs: 256},
		smoke: sizes{k: 4, hostsPerEdge: 2, peers: 2, waves: 3, probePairs: 8},
		run:   runSteadyRPC,
	},
	{
		name:  "first-touch",
		why:   "route read-miss path: host path request, controller RouteService compute and host path-table fill",
		op:    "one answered first contact",
		job:   "wave",
		full:  sizes{k: 8, hostsPerEdge: 4, waves: 6, probePairs: 256},
		smoke: sizes{k: 4, hostsPerEdge: 2, waves: 2, probePairs: 8},
		run:   runFirstTouch,
	},
	{
		name:  "hibench-fluid",
		why:   "hybrid fluid layer: HiBench jobs on a k=16 fat-tree where flowsim settle dominates; set-up carries k=16 route state",
		op:    "one completed fluid flow",
		job:   "workload.RunJobOnFabric",
		full:  sizes{k: 16, hostsPerEdge: 8, width: 5, inputGB: 0.5, probePairs: 256},
		smoke: sizes{k: 4, hostsPerEdge: 2, width: 2, inputGB: 0.01, probePairs: 8},
		run:   runHiBench,
	},
	{
		name:  "chaos-heal",
		why:   "route write path: consensus patch floods, route-cache invalidation and re-requests, host patches, telemetry",
		op:    "one chaos scenario event",
		job:   "chaos.Run",
		full:  sizes{k: 6, hostsPerEdge: 2, events: 12, pairChecks: 256, probePairs: 256},
		smoke: sizes{k: 4, hostsPerEdge: 2, events: 4, pairChecks: 16, probePairs: 8},
		run:   runChaosHeal,
	},
	{
		name:  "wan-federation",
		why:   "sharded PDES windows on 2 workers plus federation gateways and regional resolver over 5 ms WAN links",
		op:    "one delivered message",
		job:   "Federation.RunFor",
		full:  sizes{k: 8, cross: 16, intra: 32, virtual: 60 * sim.Millisecond, probePairs: 128},
		smoke: sizes{k: 4, cross: 2, intra: 2, virtual: 20 * sim.Millisecond, probePairs: 4},
		run:   runWANFederation,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fatTreeNetwork generates a fat-tree and deploys it: the set-up spans
// shared by the single-fabric workloads.
func (r *round) fatTreeNetwork(opts ...core.Option) (*core.Network, error) {
	var t *topo.Topology
	var n *core.Network
	err := r.do("topo.FatTree", func() (err error) {
		t, err = topo.FatTree(r.sz.k, r.sz.hostsPerEdge, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = r.seed
	opts = append([]core.Option{core.WithConfig(cfg)}, opts...)
	if err := r.do("core.New", func() (err error) {
		n, err = core.New(t, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	return n, r.do("Network.Bootstrap", n.Bootstrap)
}

// percentile is the nearest-rank q-quantile of virtual durations, in µs.
func percentile(xs []sim.Time, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]sim.Time(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s))+0.999999) - 1
	idx = min(max(idx, 0), len(s)-1)
	return float64(s[idx]) / float64(sim.Microsecond)
}

func (r *round) setRTT(rtts []sim.Time) {
	r.res.RTTP50us = percentile(rtts, 0.50)
	r.res.RTTP99us = percentile(rtts, 0.99)
}

func seconds(t sim.Time) float64 { return float64(t) / float64(sim.Second) }

// runSteadyRPC: every host pings each of its fixed peers and sends it one
// 1400-byte message per wave; routes are warmed both ways in set-up, so
// the measured phase must issue no path query.
func runSteadyRPC(r *round) error {
	n, err := r.fatTreeNetwork()
	if err != nil {
		return err
	}
	// Peers are a host's successors on a seeded ring, so every host sends
	// to and hears from exactly r.sz.peers others.
	rng := rand.New(rand.NewSource(r.seed))
	hosts := append([]core.MAC(nil), n.Hosts()...)
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	peers := make([][]int, len(hosts))
	for i := range hosts {
		for d := 1; d <= r.sz.peers; d++ {
			peers[i] = append(peers[i], (i+d)%len(hosts))
		}
	}
	if err := r.do("Agent.WarmUp+Run", func() error {
		for i, ps := range peers {
			for _, j := range ps {
				if err := n.Agent(hosts[i]).WarmUp(hosts[j]); err != nil {
					return err
				}
				if err := n.Agent(hosts[j]).WarmUp(hosts[i]); err != nil {
					return err
				}
			}
		}
		n.Run()
		return nil
	}); err != nil {
		return err
	}
	delivered := 0
	for _, h := range hosts {
		if err := n.OnReceive(h, func(core.MAC, []byte) { delivered++ }); err != nil {
			return err
		}
	}
	payload := make([]byte, 1400)
	rng.Read(payload)
	for i, ps := range peers {
		for _, j := range ps {
			r.addProbePair(n.Controller(), hosts[i], hosts[j])
		}
	}

	view := fabricView{nets: []*core.Network{n}}
	q0 := view.pathQueries()
	r.beginMeasure(view)
	v0 := n.Engine().Now()
	var rtts []sim.Time
	sent := 0
	for w := 0; w < r.sz.waves; w++ {
		if err := r.do("wave", func() error {
			for i, ps := range peers {
				for _, j := range ps {
					if err := n.Ping(hosts[i], hosts[j], func(rtt sim.Time) { rtts = append(rtts, rtt) }); err != nil {
						return err
					}
					if err := n.Send(hosts[i], hosts[j], payload); err != nil {
						return err
					}
					sent += 2
				}
			}
			n.Run()
			return nil
		}); err != nil {
			return err
		}
	}
	ops := len(rtts) + delivered
	r.endMeasure(ops)

	r.res.Ops, r.res.Attempted, r.res.Failed = ops, sent, sent-ops
	r.res.MakespanS = seconds(n.Engine().Now() - v0)
	r.setRTT(rtts)
	if len(rtts) != sent/2 {
		r.fail("%d of %d pings unanswered", sent/2-len(rtts), sent/2)
	}
	if delivered != sent/2 {
		r.fail("%d of %d messages undelivered", sent/2-delivered, sent/2)
	}
	if q := view.pathQueries() - q0; q != 0 {
		r.fail("%d path queries in the measured phase, want 0", q)
	}
	r.digest(n.Engine().Processed(), ops, rtts)
	return nil
}

// runFirstTouch: nothing is warmed; each wave every host pings a host it
// has neither pinged nor been pinged by, so both ends miss their path
// tables. Wave w uses offset o_w from a seeded permutation of
// 1..(H-1)/2: host i pings i+o_w and is pinged by i-o_w, and no two waves
// share an offset or its negation.
func runFirstTouch(r *round) error {
	n, err := r.fatTreeNetwork()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	hosts := append([]core.MAC(nil), n.Hosts()...)
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	h := len(hosts)
	if r.sz.waves > (h-1)/2 {
		return fmt.Errorf("first-touch: %d waves need more than %d hosts", r.sz.waves, h)
	}
	offsets := rng.Perm((h - 1) / 2)[:r.sz.waves]
	for i := 0; i < h; i++ {
		for w := range offsets {
			r.addProbePair(n.Controller(), hosts[i], hosts[(i+offsets[w]+1)%h])
		}
	}

	view := fabricView{nets: []*core.Network{n}}
	r.beginMeasure(view)
	v0 := n.Engine().Now()
	var rtts []sim.Time
	attempted := 0
	for _, o := range offsets {
		if err := r.do("wave", func() error {
			for i := 0; i < h; i++ {
				if err := n.Ping(hosts[i], hosts[(i+o+1)%h], func(rtt sim.Time) { rtts = append(rtts, rtt) }); err != nil {
					return err
				}
				attempted++
			}
			n.Run()
			return nil
		}); err != nil {
			return err
		}
	}
	r.endMeasure(len(rtts))

	r.res.Ops, r.res.Attempted, r.res.Failed = len(rtts), attempted, attempted-len(rtts)
	r.res.MakespanS = seconds(n.Engine().Now() - v0)
	r.setRTT(rtts)
	if len(rtts) != attempted {
		r.fail("%d of %d first contacts unanswered", attempted-len(rtts), attempted)
	}
	r.digest(n.Engine().Processed(), len(rtts), rtts)
	return nil
}

// runHiBench runs the five HiBench jobs one after another through the
// hybrid fluid layer, workers placed on a seeded permutation of the hosts,
// with every shuffle pair's route warmed in set-up.
func runHiBench(r *round) error {
	n, err := r.fatTreeNetwork(core.WithHybridFlows(hybrid.Config{}))
	if err != nil {
		return err
	}
	macs := append([]core.MAC(nil), n.Hosts()...)
	c := &workload.Cluster{Layer: n.Hybrid(), MACs: macs}
	for _, m := range macs {
		c.Agents = append(c.Agents, n.Agent(m))
	}
	// Each job's input is drawn within 1% of the stated size, so the seed
	// changes the suite's virtual durations but not its shape or cost.
	rng := rand.New(rand.NewSource(r.seed))
	var jobs []workload.Job
	for j := range workload.HiBenchSuite(2, 0) {
		gb := r.sz.inputGB * (0.99 + 0.02*rng.Float64())
		jobs = append(jobs, workload.HiBenchSuiteWidth(c.Workers(), r.sz.width, gb)[j])
	}
	if err := r.do("Agent.WarmUp+Run", func() error {
		for s := 0; s < c.Workers(); s++ {
			for i := 1; i <= r.sz.width; i++ {
				dst := c.MACs[(s+i)%c.Workers()]
				if err := c.Agents[s].WarmUp(dst); err != nil {
					return err
				}
				r.addProbePair(n.Controller(), c.MACs[s], dst)
			}
		}
		n.Run()
		return nil
	}); err != nil {
		return err
	}

	ly := n.Hybrid()
	view := fabricView{nets: []*core.Network{n}}
	st0 := ly.Stats()
	r.beginMeasure(view)
	var durs []sim.Time
	var makespan sim.Time
	for _, j := range jobs {
		if err := r.do("workload.RunJobOnFabric", func() error {
			d, err := workload.RunJobOnFabric(j, c)
			if err != nil {
				r.fail("job %s: %v", j.Name, err)
			}
			durs = append(durs, d)
			makespan += d
			return nil
		}); err != nil {
			return err
		}
	}
	st := ly.Stats()
	ops := int(st.Completed - st0.Completed)
	r.endMeasure(ops)

	attempted := int(st.Opened - st0.Opened)
	r.res.Ops, r.res.Attempted, r.res.Failed = ops, attempted, attempted-ops
	r.res.MakespanS = seconds(makespan)
	if st.Active != 0 {
		r.fail("%d fluid flows still active after the suite", st.Active)
	}
	if attempted == 0 {
		r.fail("the suite opened no fluid flows")
	}
	r.digest(n.Engine().Processed(), ly.Digest(), durs)
	return nil
}

// rttTarget is the chaos target with the pings it issues observed: RTTs of
// answered pings, and the distinct pairs checked synchronously after heal.
type rttTarget struct {
	*core.Network
	rtts    []sim.Time
	checked map[[2]core.MAC]bool
}

func (t *rttTarget) Ping(src, dst core.MAC, cb func(rtt sim.Time)) error {
	return t.Network.Ping(src, dst, func(rtt sim.Time) {
		t.rtts = append(t.rtts, rtt)
		cb(rtt)
	})
}

func (t *rttTarget) PingSync(src, dst core.MAC) (sim.Time, error) {
	t.checked[[2]core.MAC{src, dst}] = true
	rtt, err := t.Network.PingSync(src, dst)
	if err == nil {
		t.rtts = append(t.rtts, rtt)
	}
	return rtt, err
}

// chaosScript seeds chaos-heal's drill: its fault script and the engine
// that draws the lossy, jittered channel. Both stay fixed because the draws
// move the run's cost by more than the benchmark's bounds. On a 2-vCPU
// Xeon a per-seed script spread ops_per_s by 26% (IQR/median, five seeds),
// and per-seed engine draws alone put it anywhere from 3.4 to 4.4 1/s over
// five seeds of the 12-event drill. The workload seed places the two
// controller replicas instead.
const chaosScript = 1

// runChaosHeal runs the default chaos scenario (loss, flaps, switch
// crashes, a primary-controller crash) over a replicated, telemetry-on
// fabric. Invariant violations are failed ops, not benchmark errors.
func runChaosHeal(r *round) error {
	n, err := r.fatTreeNetwork(core.WithSeed(chaosScript))
	if err != nil {
		return err
	}
	hosts := n.Hosts()
	if err := r.do("Network.WarmAll", func() error { n.WarmAll(); return nil }); err != nil {
		return err
	}
	if err := r.do("Network.EnableReplicationAt", func() error {
		// One replica in each of two distinct pods (hosts are pod-major).
		rng := rand.New(rand.NewSource(r.seed))
		perPod := len(hosts) / r.sz.k
		pods := rng.Perm(r.sz.k)
		_, err := n.EnableReplicationAt([]core.MAC{
			hosts[pods[0]*perPod+rng.Intn(perPod)],
			hosts[pods[1]*perPod+rng.Intn(perPod)],
		})
		return err
	}); err != nil {
		return err
	}
	if err := r.do("Network.EnableTelemetry", func() error {
		_, err := n.EnableTelemetry(telemetry.DefaultConfig())
		return err
	}); err != nil {
		return err
	}
	cfg := chaos.DefaultConfig(chaosScript)
	cfg.Events = r.sz.events
	cfg.MaxPairChecks = r.sz.pairChecks
	target := &rttTarget{Network: n, checked: map[[2]core.MAC]bool{}}
	view := fabricView{nets: []*core.Network{n}}
	r.beginMeasure(view)
	v0 := n.Engine().Now()
	var rep *chaos.Report
	if err := r.do("chaos.Run", func() (err error) {
		rep, err = chaos.Run(target, cfg)
		return err
	}); err != nil {
		return err
	}
	r.endMeasure(cfg.Events)

	r.res.Ops = cfg.Events
	r.res.Attempted = cfg.Events + len(target.checked)
	r.res.Failed = len(rep.Violations)
	r.res.MakespanS = seconds(n.Engine().Now() - v0)
	r.setRTT(target.rtts)
	ctl := n.Controller()
	if p := n.Group().Primary(); p != nil {
		ctl = p
	}
	for i := range hosts {
		r.addProbePair(ctl, hosts[i], hosts[(i+1+i%7)%len(hosts)])
	}
	for _, v := range rep.Violations {
		r.note("invariant violated: %v", v)
	}
	r.digest(n.Engine().Processed(), rep.Digest(), len(rep.Violations), target.rtts)
	return nil
}

// fedConv is one echo conversation. Its two ends run on the shard workers
// of their own fabrics, so each end owns its fields.
type fedConv struct {
	a, b         core.MAC
	fabA, fabB   int
	deliveredA   int64
	deliveredB   int64
	lastA, lastB sim.Time
}

// runWANFederation keeps cross-fabric and intra-fabric echo conversations
// running on two federated k=8 fat-trees for a fixed virtual time: every
// delivery is echoed straight back.
func runWANFederation(r *round) error {
	var fed *core.Federation
	var specs []core.FabricSpec
	if err := r.do("topo.FatTree", func() error {
		for _, name := range []string{"west", "east"} {
			t, err := topo.FatTree(r.sz.k, r.sz.hostsPerEdge, 0)
			if err != nil {
				return err
			}
			specs = append(specs, core.FabricSpec{Name: name, Topo: t})
		}
		return nil
	}); err != nil {
		return err
	}
	if err := r.do("core.Federate", func() (err error) {
		fed, err = core.Federate(core.DefaultFederationConfig(r.seed), specs...)
		return err
	}); err != nil {
		return err
	}
	defer fed.SimGroup().Close()

	// Conversation endpoints are distinct non-gateway hosts, drawn by seed.
	rng := rand.New(rand.NewSource(r.seed))
	free := make([][]core.MAC, 2)
	for f := 0; f < 2; f++ {
		gw := map[core.MAC]bool{}
		for _, m := range fed.GatewayMACs(f) {
			gw[m] = true
		}
		for _, i := range rng.Perm(len(fed.Hosts(f))) {
			if m := fed.Hosts(f)[i]; !gw[m] {
				free[f] = append(free[f], m)
			}
		}
	}
	take := func(f int) (core.MAC, error) {
		if len(free[f]) == 0 {
			return core.MAC{}, fmt.Errorf("wan-federation: fabric %d has too few hosts", f)
		}
		m := free[f][0]
		free[f] = free[f][1:]
		return m, nil
	}
	var convs []*fedConv
	for f := 0; f < 2; f++ {
		for i := 0; i < r.sz.cross+r.sz.intra; i++ {
			peer := f
			if i < r.sz.cross {
				peer = 1 - f
			}
			a, err := take(f)
			if err != nil {
				return err
			}
			b, err := take(peer)
			if err != nil {
				return err
			}
			convs = append(convs, &fedConv{a: a, b: b, fabA: f, fabB: peer})
			if f == peer {
				r.addProbePair(fed.Network(f).Controller(), a, b)
			}
		}
	}
	payload := make([]byte, 64)
	rng.Read(payload)
	var sendErrs atomic.Int64
	for _, c := range convs {
		for _, end := range []struct {
			me, peer core.MAC
			fab      int
			count    *int64
			last     *sim.Time
		}{{c.a, c.b, c.fabA, &c.deliveredA, &c.lastA}, {c.b, c.a, c.fabB, &c.deliveredB, &c.lastB}} {
			eng := fed.Network(end.fab).Agent(end.me).Engine()
			fn := func(src core.MAC, p []byte) {
				*end.count++
				*end.last = eng.Now()
				if err := fed.Send(end.me, src, p); err != nil {
					sendErrs.Add(1)
				}
			}
			if err := fed.OnReceive(end.me, fn); err != nil {
				return err
			}
			if err := fed.Network(end.fab).OnReceive(end.me, fn); err != nil {
				return err
			}
		}
	}
	delivered := func() (n int64, last sim.Time) {
		for _, c := range convs {
			n += c.deliveredA + c.deliveredB
			last = max(last, c.lastA, c.lastB)
		}
		return n, last
	}
	// Compose every cross-fabric route, both ways, while the shards are
	// idle. A cold inter-fabric resolve on a shard worker reads the far
	// fabric's RouteService while that fabric's worker writes it, a data
	// race the program has today; warmed, the workers only hit the
	// regional cache.
	if err := r.do("Federation.Resolve", func() error {
		for _, c := range convs {
			if c.fabA == c.fabB {
				continue
			}
			for _, q := range []controller.RouteQuery{{Src: c.a, Dst: c.b}, {Src: c.b, Dst: c.a}} {
				q.Scope = controller.ScopeFabric
				if _, err := fed.Resolve(q); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Warm-up: start every conversation and let routes fill across the WAN.
	if err := r.do("warmup Federation.RunFor", func() error {
		for _, c := range convs {
			if err := fed.Send(c.a, c.b, payload); err != nil {
				return err
			}
		}
		fed.RunFor(4 * 5 * sim.Millisecond)
		return nil
	}); err != nil {
		return err
	}

	view := fabricView{nets: []*core.Network{fed.Network(0), fed.Network(1)}, fed: fed}
	d0, _ := delivered()
	par0, solo0 := fed.Windows()
	r.beginMeasure(view)
	v0 := fed.Now()
	const step = 10 * sim.Millisecond
	for t := sim.Time(0); t < r.sz.virtual; t += step {
		if err := r.do("Federation.RunFor", func() error { fed.RunFor(min(step, r.sz.virtual-t)); return nil }); err != nil {
			return err
		}
	}
	d1, last := delivered()
	ops := int(d1 - d0)
	r.endMeasure(ops)

	par1, solo1 := fed.Windows()
	r.res.Ops, r.res.Attempted, r.res.Failed = ops, ops+int(sendErrs.Load()), int(sendErrs.Load())
	r.res.MakespanS = seconds(last - v0)
	if par1 == par0 {
		r.fail("no parallel windows in the measured phase")
	}
	for _, c := range convs {
		if c.deliveredA == 0 || c.deliveredB == 0 {
			r.fail("conversation %v <-> %v stalled", c.a, c.b)
		}
	}
	r.digest(fed.SimGroup().Processed(), ops, par1-par0, solo1-solo0)
	return nil
}
