package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
	"dumbnet/internal/federation"
	"dumbnet/internal/host"
	dmetrics "dumbnet/internal/metrics"
	"dumbnet/internal/sim"
)

// metricDef is one reported metric. Target names the end-to-end metric and
// workload a per-layer metric is expected to move; it is documentation
// printed with the traced table, not part of BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better, Target string
}

// endToEnd are the metrics of an untraced run, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"peak_rss_mib", "MiB", "lower", ""},
}

// profiledModules are the layers CPU samples are charged to: the
// dumbnet/internal packages the workloads reach, "other" for any further
// internal package, "bench" for this harness and "runtime" for the rest
// (GC workers included).
var profiledModules = []string{
	"sim", "fabric", "dswitch", "packet", "host", "topo", "controller", "consensus",
	"hybrid", "flowsim", "workload", "telemetry", "federation", "chaos", "core",
	"trace", "metrics", "other", "bench", "runtime",
}

// setupModules get a set-up share as well: the layers that build fabrics,
// agents, path tables and replicas before the first timed op.
var setupModules = []string{"sim", "fabric", "host", "topo", "controller", "consensus", "hybrid", "core", "runtime"}

const (
	stepsRPC   = "ops_per_s on steady-rpc"
	firstTouch = "ops_per_s on first-touch"
	hibench    = "ops_per_s on hibench-fluid"
	chaosHeal  = "ops_per_s on chaos-heal"
	wanFed     = "ops_per_s on wan-federation"
	everyOps   = "ops_per_s and peak_rss_mib on every workload"
)

// perLayer is every metric of a traced run, in print order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "lower", stepsRPC},
		{"sim.events_per_s", "1/s", "higher", stepsRPC},
		{"sim.windows_parallel", "count", "higher", wanFed},
		{"sim.windows_solo", "count", "lower", wanFed},
		{"sim.events_per_window", "count", "higher", wanFed},
		{"dswitch.forwarded", "count", "lower", stepsRPC},
		{"dswitch.floods_out", "count", "lower", stepsRPC},
		{"dswitch.alarms_sent", "count", "lower", stepsRPC},
	}
	for _, d := range dropClasses {
		defs = append(defs, metricDef{"fabric.drops." + d, "count", "lower", stepsRPC})
	}
	defs = append(defs,
		metricDef{"host.sent", "count", "lower", stepsRPC},
		metricDef{"host.received", "count", "higher", stepsRPC},
		metricDef{"host.path_queries", "count", "lower", firstTouch},
		metricDef{"host.path_responses", "count", "lower", firstTouch},
		metricDef{"host.query_retries", "count", "lower", firstTouch},
		metricDef{"host.queries_abandoned", "count", "lower", firstTouch},
		metricDef{"host.patches_applied", "count", "lower", chaosHeal},
		metricDef{"host.events_dup_ratio", "ratio", "lower", chaosHeal},
		metricDef{"host.pathreq_latency_us", "us", "lower", firstTouch},
		metricDef{"controller.path_requests", "count", "lower", firstTouch},
		metricDef{"controller.patches_sent", "count", "lower", chaosHeal},
		metricDef{"ctrl.route.hit", "count", "higher", firstTouch},
		metricDef{"ctrl.route.miss", "count", "lower", firstTouch},
		metricDef{"ctrl.route.invalidated", "count", "lower", chaosHeal},
		metricDef{"ctrl.route.coalesced", "count", "higher", firstTouch},
		metricDef{"controller.route_hit_ratio", "ratio", "higher", firstTouch},
		metricDef{"controller.route_entries", "count", "lower", "setup_s and peak_rss_mib on hibench-fluid"},
		metricDef{"controller.resolve_warm_ns", "ns", "lower", firstTouch},
		metricDef{"controller.resolve_cold_us", "us", "lower", firstTouch + " and chaos-heal"},
		metricDef{"controller.proposals", "count", "lower", chaosHeal},
		metricDef{"hybrid.opened", "count", "higher", hibench},
		metricDef{"hybrid.completed", "count", "higher", hibench},
		metricDef{"hybrid.failed", "count", "lower", hibench},
		metricDef{"hybrid.rerouted", "count", "lower", hibench},
		metricDef{"flowsim.settles", "count", "lower", hibench},
		metricDef{"flowsim.rerates", "count", "lower", hibench},
		metricDef{"flowsim.rerates_per_flow", "ratio", "lower", hibench},
		metricDef{"workload.job_s", "s", "lower", hibench},
		metricDef{"telemetry.flushes", "count", "lower", chaosHeal},
		metricDef{"telemetry.tap_dropped", "count", "lower", chaosHeal},
		metricDef{"telemetry.flags_raised", "count", "lower", chaosHeal},
		metricDef{"federation.regional_hits", "count", "higher", wanFed},
		metricDef{"federation.regional_misses", "count", "lower", wanFed},
		metricDef{"federation.regional_invalidated", "count", "lower", wanFed},
		metricDef{"federation.gw_relayed", "count", "higher", wanFed},
		metricDef{"federation.gw_failovers", "count", "lower", wanFed},
		metricDef{"runtime.alloc_bytes_per_op", "B", "lower", everyOps},
		metricDef{"runtime.gc_cycles", "count", "lower", everyOps},
		metricDef{"runtime.gc_pause_ms", "ms", "lower", everyOps},
		metricDef{"runtime.gc_pct", "%", "lower", everyOps},
		metricDef{"runtime.cpu_s", "s", "lower", everyOps},
		metricDef{"runtime.cpu_util", "ratio", "higher", wanFed},
		metricDef{"bench.trace_overhead_pct", "%", "lower", "none: traced ops_per_s against untraced"},
	)
	for _, m := range profiledModules {
		defs = append(defs, metricDef{m + ".self_pct", "%", "lower", selfTarget[m]})
	}
	for _, m := range setupModules {
		defs = append(defs, metricDef{m + ".setup_pct", "%", "lower", "setup_s on every workload"})
	}
	return defs
}()

var selfTarget = map[string]string{
	"sim": stepsRPC, "fabric": stepsRPC, "dswitch": stepsRPC, "packet": stepsRPC,
	"host":       firstTouch + " and steady-rpc",
	"topo":       firstTouch + ", setup_s on hibench-fluid",
	"controller": firstTouch + " and chaos-heal",
	"consensus":  chaosHeal, "hybrid": hibench, "flowsim": hibench, "workload": hibench,
	"telemetry": chaosHeal, "federation": wanFed, "chaos": "none: harness cost inside chaos-heal",
	"core": everyOps, "trace": everyOps, "metrics": everyOps, "other": everyOps,
	"bench": "none: harness cost", "runtime": everyOps,
}

var dropClasses = []string{
	"link_queue", "link_down_tx", "impair_lost", "impair_corrupt",
	"switch_no_port", "switch_link_down", "switch_bad_frame", "switch_end_of_path", "switch_down",
}

// fabricView is what a workload exposes to the counters: its networks (one,
// or every member of a federation) and the federation when there is one.
type fabricView struct {
	nets []*core.Network
	fed  *core.Federation
}

// agents lists every host agent of a network, controller included.
func agents(n *core.Network) []*host.Agent {
	out := []*host.Agent{n.Agent(n.Controller().MAC())}
	for _, m := range n.Hosts() {
		out = append(out, n.Agent(m))
	}
	return out
}

// controllers lists the replica group, or the lone controller.
func controllers(n *core.Network) []*controller.Controller {
	if g := n.Group(); g != nil {
		return g.Controllers()
	}
	return []*controller.Controller{n.Controller()}
}

// pathQueries sums host path queries over the view; the steady-rpc check
// reads it around the measured phase of every run.
func (v fabricView) pathQueries() uint64 {
	var sum uint64
	for _, n := range v.nets {
		for _, a := range agents(n) {
			sum += a.Stats().PathQueries
		}
	}
	return sum
}

// counters snapshots the counters the program already exposes, summed over
// the view's networks: engine registries, agent, controller, fluid,
// telemetry and federation stats.
func (v fabricView) counters() map[string]float64 {
	c := map[string]float64{}
	for _, name := range counterNames {
		c[name] = 0
	}
	var lat dmetrics.StreamHist
	for _, n := range v.nets {
		c["sim.events"] += float64(n.Engine().Processed())
		snap := n.Engine().Metrics().Snapshot(int64(n.Engine().Now()))
		for from, to := range map[string]string{
			"fabric/switch/forwarded":   "dswitch.forwarded",
			"fabric/switch/floods-out":  "dswitch.floods_out",
			"fabric/switch/alarms-sent": "dswitch.alarms_sent",
			"ctrl.route.hit":            "ctrl.route.hit",
			"ctrl.route.miss":           "ctrl.route.miss",
			"ctrl.route.invalidated":    "ctrl.route.invalidated",
			"ctrl.route.coalesced":      "ctrl.route.coalesced",
		} {
			if e, ok := snap.Get(from); ok {
				c[to] += e.Value
			}
		}
		lat.Merge(n.Engine().Metrics().Histogram("host.pathreq.latency"))
		d := n.Drops()
		for i, x := range []uint64{d.LinkQueue, d.LinkDownTx, d.ImpairLost, d.ImpairCorrupt,
			d.SwNoPort, d.SwLinkDown, d.SwBadFrame, d.SwEndOfPath, d.SwSwitchDown} {
			c["fabric.drops."+dropClasses[i]] += float64(x)
		}
		for _, a := range agents(n) {
			st := a.Stats()
			c["host.sent"] += float64(st.Sent)
			c["host.received"] += float64(st.Received)
			c["host.path_queries"] += float64(st.PathQueries)
			c["host.path_responses"] += float64(st.PathResponses)
			c["host.query_retries"] += float64(st.QueryRetries)
			c["host.queries_abandoned"] += float64(st.QueriesAbandoned)
			c["host.patches_applied"] += float64(st.PatchesAppled)
			c["host.events_seen"] += float64(st.EventsSeen)
			c["host.events_dup"] += float64(st.EventsDup)
		}
		for _, ctl := range controllers(n) {
			st := ctl.Stats()
			c["controller.path_requests"] += float64(st.PathRequests)
			c["controller.patches_sent"] += float64(st.PatchesSent)
			c["controller.proposals"] += float64(st.Proposals)
			c["controller.route_entries"] += float64(ctl.Routes().Len())
		}
		if ly := n.Hybrid(); ly != nil {
			st := ly.Stats()
			settles, rerates := ly.FluidDebug()
			c["hybrid.opened"] += float64(st.Opened)
			c["hybrid.completed"] += float64(st.Completed)
			c["hybrid.failed"] += float64(st.Failed)
			c["hybrid.rerouted"] += float64(st.Rerouted)
			c["flowsim.settles"] += float64(settles)
			c["flowsim.rerates"] += float64(rerates)
		}
		if hub := n.Telemetry(); hub != nil {
			c["telemetry.flushes"] += float64(hub.Flushes())
			c["telemetry.tap_dropped"] += float64(hub.TapDropped())
			c["telemetry.flags_raised"] += float64(hub.Raised())
		}
	}
	c["host.pathreq_latency_us"] = lat.Mean() / float64(sim.Microsecond)
	if f := v.fed; f != nil {
		par, solo := f.Windows()
		c["sim.windows_parallel"] = float64(par)
		c["sim.windows_solo"] = float64(solo)
		st := f.Regional().Stats()
		c["federation.regional_hits"] = float64(st.Hits)
		c["federation.regional_misses"] = float64(st.Misses)
		c["federation.regional_invalidated"] = float64(st.Invalidated)
		for _, w := range f.WANLinks() {
			for _, gw := range []*federation.Gateway{w.GwA, w.GwB} {
				st := gw.Stats()
				c["federation.gw_relayed"] += float64(st.Relayed)
				c["federation.gw_failovers"] += float64(st.Failovers)
			}
		}
	}
	return c
}

// counterNames are the counters every view reports, zero where a workload
// does not reach the layer.
var counterNames = []string{
	"sim.windows_parallel", "sim.windows_solo",
	"dswitch.forwarded", "dswitch.floods_out", "dswitch.alarms_sent",
	"ctrl.route.hit", "ctrl.route.miss", "ctrl.route.invalidated", "ctrl.route.coalesced",
	"hybrid.opened", "hybrid.completed", "hybrid.failed", "hybrid.rerouted",
	"flowsim.settles", "flowsim.rerates",
	"telemetry.flushes", "telemetry.tap_dropped", "telemetry.flags_raised",
	"federation.regional_hits", "federation.regional_misses", "federation.regional_invalidated",
	"federation.gw_relayed", "federation.gw_failovers",
}

// gauges are read at the end of the measured phase rather than as deltas.
var gauges = map[string]bool{"controller.route_entries": true, "host.pathreq_latency_us": true}

// runtimeSample is the process state at a phase boundary.
type runtimeSample struct {
	wall          time.Time
	cpu           time.Duration
	alloc, numGC  uint64
	pauseNs       uint64
	gcCPU, totCPU float64
}

var cpuClasses = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// processCPU is the user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks are the machine-wide total and steal ticks of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(f) && i <= 8; i++ { // user .. steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealPctSince is the steal share of the machine's ticks since t0.
func (t cpuTicks) stealPctSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return 100 * float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{wall: time.Now(), alloc: ms.TotalAlloc, numGC: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
	s.cpu = processCPU()
	ms2 := []metrics.Sample{{Name: cpuClasses[0]}, {Name: cpuClasses[1]}}
	metrics.Read(ms2)
	if ms2[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms2[0].Value.Float64()
	}
	if ms2[1].Value.Kind() == metrics.KindFloat64 {
		s.totCPU = ms2[1].Value.Float64()
	}
	return s
}

// layerMetrics turns the counters and runtime samples taken around the
// measured phase into the per-layer metrics that do not come from the
// profile or the spans.
func layerMetrics(before, after map[string]float64, rb, ra runtimeSample, ops int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	wall := ra.wall.Sub(rb.wall).Seconds()
	out["sim.events_per_s"] = out["sim.events"] / wall
	out["sim.events_per_window"] = ratio(out["sim.events"], out["sim.windows_parallel"]+out["sim.windows_solo"])
	out["host.events_dup_ratio"] = ratio(out["host.events_dup"], out["host.events_seen"]+out["host.events_dup"])
	delete(out, "host.events_seen")
	delete(out, "host.events_dup")
	out["controller.route_hit_ratio"] = ratio(out["ctrl.route.hit"], out["ctrl.route.hit"]+out["ctrl.route.miss"])
	out["flowsim.rerates_per_flow"] = ratio(out["flowsim.rerates"], out["hybrid.completed"])
	out["runtime.alloc_bytes_per_op"] = float64(ra.alloc-rb.alloc) / float64(max(ops, 1))
	out["runtime.gc_cycles"] = float64(ra.numGC - rb.numGC)
	out["runtime.gc_pause_ms"] = float64(ra.pauseNs-rb.pauseNs) / 1e6
	out["runtime.gc_pct"] = 100 * ratio(ra.gcCPU-rb.gcCPU, ra.totCPU-rb.totCPU)
	out["runtime.cpu_s"] = (ra.cpu - rb.cpu).Seconds()
	out["runtime.cpu_util"] = out["runtime.cpu_s"] / wall
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resolveProbe times the production Controller.Resolve path over the
// workload's own pairs: warm (cache hit) in ns per call, then cold after
// RouteService.Invalidate in µs per call. It runs after the measured phase
// and after the run digest, so it cannot perturb either.
func resolveProbe(ctl *controller.Controller, pairs [][2]core.MAC) (warmNs, coldUs float64, err error) {
	const warmReps = 20
	q := func(p [2]core.MAC) controller.RouteQuery { return controller.RouteQuery{Src: p[0], Dst: p[1]} }
	for _, p := range pairs {
		if _, err := ctl.Resolve(q(p)); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	for i := 0; i < warmReps; i++ {
		for _, p := range pairs {
			if _, err := ctl.Resolve(q(p)); err != nil {
				return 0, 0, err
			}
		}
	}
	warmNs = float64(time.Since(start).Nanoseconds()) / float64(warmReps*len(pairs))
	ctl.Routes().Invalidate()
	start = time.Now()
	for _, p := range pairs {
		if _, err := ctl.Resolve(q(p)); err != nil {
			return 0, 0, err
		}
	}
	coldUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(pairs))
	return warmNs, coldUs, nil
}

// selfPct turns per-module CPU nanoseconds into percentage shares over
// the given module list ("other" collects internal packages not listed).
func selfPct(ns map[string]int64, mods []string, suffix string) map[string]float64 {
	known := map[string]bool{}
	for _, m := range profiledModules {
		known[m] = true
	}
	var total int64
	by := map[string]int64{}
	for m, v := range ns {
		if !known[m] {
			m = "other"
		}
		by[m] += v
		total += v
	}
	out := map[string]float64{}
	for _, m := range mods {
		if total > 0 {
			out[m+suffix] = 100 * float64(by[m]) / float64(total)
		} else {
			out[m+suffix] = 0
		}
	}
	return out
}

// median of a non-empty sample (mean of the middle pair for even sizes).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
