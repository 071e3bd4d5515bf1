// Command fabbench is the repository benchmark: it builds one fabric
// workload through the public core, workload and chaos APIs, runs it for a
// time budget, checks its outputs and prints its metrics.
//
//	bash fabbench/run.sh --workload steady-rpc --seed 1 --seconds 25 --trace 0
//
// A run repeats rounds until the budget is spent. Each round is a fresh
// child process that sets the workload up from the seed, runs its fixed
// measured phase, and reports; the parent prints medians over rounds and
// fails the run when rounds disagree on any virtual-time result or digest.
// With --trace 1 the first round runs untraced as the overhead baseline and
// the rest record spans, counter snapshots and a CPU profile, from which
// the per-layer table is drawn. The last line of standard output is the
// JSON result; spans, profiles and a full record with machine metadata are
// written under .bench_build/fabbench in the repository root.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"dumbnet/internal/controller"
	"dumbnet/internal/core"
)

// simFacts are a round's deterministic results: for one seed and one
// source tree they must repeat exactly, round to round and run to run.
type simFacts struct {
	Ops       int     `json:"ops"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	MakespanS float64 `json:"sim_makespan_s"`
	RTTP50us  float64 `json:"sim_rtt_p50_us"`
	RTTP99us  float64 `json:"sim_rtt_p99_us"`
	Digest    string  `json:"digest"`
}

// roundResult is what one child process reports.
type roundResult struct {
	simFacts
	SetupS   float64 `json:"setup_s"`
	MeasureS float64 `json:"measure_s"`
	// MeasureCPUS is the process CPU time of the measured phase and
	// MeasureStealPct the share of the machine's CPU time the hypervisor
	// took during it: the record shows when a slow round was a slow VM.
	MeasureCPUS     float64            `json:"measure_cpu_s"`
	MeasureStealPct float64            `json:"measure_steal_pct"`
	PeakRSSMiB      float64            `json:"peak_rss_mib"`
	Errors          []string           `json:"errors,omitempty"`
	Notes           []string           `json:"notes,omitempty"`
	Traced          bool               `json:"traced"`
	Layers          map[string]float64 `json:"layers,omitempty"`
	SelfNs          map[string]int64   `json:"self_ns,omitempty"`
	SetupNs         map[string]int64   `json:"setup_ns,omitempty"`
	SpanSelfS       map[string]float64 `json:"span_self_s,omitempty"`
}

type probeSet struct {
	ctl   *controller.Controller
	pairs [][2]core.MAC
}

// round is one set-up plus measured phase inside a child process.
type round struct {
	seed   int64
	sz     sizes
	traced bool
	spans  *spanLog // nil when untraced

	t0, tMeasure time.Time
	cpu0         time.Duration
	steal0       cpuTicks
	view         fabricView
	before       map[string]float64
	rtBefore     runtimeSample
	prof         *bytes.Buffer
	profiles     map[string][]byte // phase -> raw CPU profile
	probes       []*probeSet
	res          roundResult
}

func (r *round) do(name string, fn func() error) error { return r.spans.do(name, fn) }

func (r *round) fail(format string, args ...any) {
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
}

func (r *round) note(format string, args ...any) {
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// digest folds the run's deterministic facts into one value that every
// round of a run must reproduce.
func (r *round) digest(parts ...any) {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	r.res.Digest = fmt.Sprintf("%016x", h.Sum64())
}

func (r *round) addProbePair(ctl *controller.Controller, a, b core.MAC) {
	for _, p := range r.probes {
		if p.ctl == ctl {
			if len(p.pairs) < r.sz.probePairs {
				p.pairs = append(p.pairs, [2]core.MAC{a, b})
			}
			return
		}
	}
	r.probes = append(r.probes, &probeSet{ctl: ctl, pairs: [][2]core.MAC{{a, b}}})
}

func (r *round) startProfile() {
	if !r.traced {
		return
	}
	r.prof = new(bytes.Buffer)
	if err := pprof.StartCPUProfile(r.prof); err != nil {
		r.fail("cpu profile: %v", err)
		r.prof = nil
	}
}

// stopProfile ends the current CPU profile, keeps it under the phase name
// and charges its samples to modules.
func (r *round) stopProfile(phase string) map[string]int64 {
	if r.prof == nil {
		return nil
	}
	pprof.StopCPUProfile()
	r.profiles[phase] = r.prof.Bytes()
	samples, err := parseProfile(r.prof.Bytes())
	if err != nil {
		r.fail("cpu profile: %v", err)
		return nil
	}
	out := map[string]int64{}
	for _, s := range samples {
		out[moduleOf(s.stack)] += s.ns
	}
	r.prof = nil
	return out
}

// beginMeasure ends set-up: the first timed op follows.
func (r *round) beginMeasure(v fabricView) {
	r.res.SetupS = time.Since(r.t0).Seconds()
	r.view = v
	if r.traced {
		r.res.SetupNs = r.stopProfile("setup")
		r.before = v.counters()
		r.rtBefore = sampleRuntime()
		r.startProfile()
	}
	r.cpu0, r.steal0 = processCPU(), readCPUTicks()
	r.tMeasure = time.Now()
}

// endMeasure closes the measured phase after ops completed ops.
func (r *round) endMeasure(ops int) {
	r.res.MeasureS = time.Since(r.tMeasure).Seconds()
	r.res.MeasureCPUS = (processCPU() - r.cpu0).Seconds()
	r.res.MeasureStealPct = readCPUTicks().stealPctSince(r.steal0)
	if r.traced {
		after := sampleRuntime()
		r.res.SelfNs = r.stopProfile("measure")
		r.res.Layers = layerMetrics(r.before, r.view.counters(), r.rtBefore, after, ops)
	}
}

// runRound executes one round of w in this process.
func runRound(w *workloadDef, sz sizes, seed int64, traced bool, runID string) (*round, error) {
	r := &round{seed: seed, sz: sz, traced: traced, profiles: map[string][]byte{}}
	if traced {
		r.spans = newSpanLog(runID)
	}
	r.t0 = time.Now()
	r.startProfile()
	if err := w.run(r); err != nil {
		r.stopProfile("failed")
		return nil, err
	}
	if r.res.Ops <= 0 {
		r.fail("no op completed")
	}
	if traced {
		r.res.Traced = true
		var warm, cold []float64
		for _, p := range r.probes {
			wn, cu, err := resolveProbe(p.ctl, p.pairs)
			if err != nil {
				r.fail("resolve probe: %v", err)
				continue
			}
			warm, cold = append(warm, wn), append(cold, cu)
		}
		r.res.Layers["controller.resolve_warm_ns"] = median(warm)
		r.res.Layers["controller.resolve_cold_us"] = median(cold)
		r.res.Layers["workload.job_s"] = median(r.spans.durations(w.job))
		r.res.SpanSelfS = r.spans.selfSeconds()
	}
	r.res.PeakRSSMiB = float64(peakRSSBytes()) / (1 << 20)
	return r, nil
}

// peakRSSBytes reads the process high-water RSS (VmHWM).
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	child    bool
	round    int
	root     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 25, "time budget of the run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 for the traced per-layer run")
	flag.BoolVar(&o.child, "child", false, "run one round in this process (internal)")
	flag.IntVar(&o.round, "round", 0, "round index (with -child)")
	flag.StringVar(&o.root, "root", ".", "repository root (output goes to <root>/.bench_build/fabbench)")
	flag.Parse()
	w := workloadByName(o.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "fabbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if o.child {
		if err := childMain(w, o); err != nil {
			fmt.Fprintf(os.Stderr, "fabbench: %s round %d: %v\n", w.name, o.round, err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(w, o); err != nil {
		fmt.Fprintf(os.Stderr, "fabbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

func outDir(o options) string {
	return filepath.Join(o.root, ".bench_build", "fabbench", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
}

func childMain(w *workloadDef, o options) error {
	traced := o.trace == 1
	runID := fmt.Sprintf("%s/seed%d/round%d", w.name, o.seed, o.round)
	r, err := runRound(w, w.full, o.seed, traced, runID)
	if err != nil {
		return err
	}
	if traced {
		dir := outDir(o)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		base := filepath.Join(dir, fmt.Sprintf("round%d", o.round))
		if err := r.spans.write(base + ".spans.json"); err != nil {
			return err
		}
		for phase, data := range r.profiles {
			if err := os.WriteFile(base+"."+phase+".pprof", data, 0o644); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(&r.res)
}

// runChild runs one round in a fresh process, so set-up and peak RSS are
// measured from a cold heap each time.
func runChild(o options, round int, traced bool) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := 0
	if traced {
		t = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-trace", strconv.Itoa(t), "-round", strconv.Itoa(round), "-root", o.root)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", round, err)
	}
	var res roundResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return nil, fmt.Errorf("round %d: bad report: %w", round, err)
	}
	return &res, nil
}

// minRounds is the fewest rounds a run makes, whatever its budget: set-up
// time is reported as a median, and a traced run needs its untraced
// baseline plus two traced rounds.
const minRounds = 3

func parentMain(w *workloadDef, o options) error {
	traced := o.trace == 1
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	var rounds []*roundResult
	var longest time.Duration
	for i := 0; ; i++ {
		if i >= minRounds && time.Since(start)+longest > budget {
			break
		}
		t0 := time.Now()
		res, err := runChild(o, i, traced && i > 0)
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(t0))
		rounds = append(rounds, res)
	}
	return report(w, o, rounds)
}

// report checks the rounds against each other, prints the human table and
// the record file, and ends with the one-line JSON result.
func report(w *workloadDef, o options, rounds []*roundResult) error {
	var problems []string
	first := rounds[0]
	attempted, failed := 0, 0
	var setup, opsPerS, rss, tracedOps, untracedOps []float64
	for i, r := range rounds {
		for _, e := range r.Errors {
			problems = append(problems, fmt.Sprintf("round %d: %s", i, e))
		}
		if r.simFacts != first.simFacts {
			problems = append(problems, fmt.Sprintf("round %d disagrees with round 0: %+v vs %+v", i, r.simFacts, first.simFacts))
		}
		attempted += r.Attempted
		failed += r.Failed
		setup = append(setup, r.SetupS)
		rss = append(rss, r.PeakRSSMiB)
		rate := float64(r.Ops) / r.MeasureS
		if r.Traced {
			tracedOps = append(tracedOps, rate)
		} else {
			untracedOps = append(untracedOps, rate)
			opsPerS = append(opsPerS, rate)
		}
	}
	meta := machineMeta(o)
	if p := checkEarlierRuns(o, meta["source_sha256"].(string), first.simFacts); p != "" {
		problems = append(problems, p)
	}
	traced := o.trace == 1
	metrics := map[string]map[string]any{}
	put := func(d metricDef, v float64) { metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit} }

	var layers map[string]float64
	if traced {
		layers = mergeLayers(rounds)
		layers["bench.trace_overhead_pct"] = 100 * (1 - median(tracedOps)/median(untracedOps))
		for _, d := range perLayer {
			v, ok := layers[d.Name]
			if !ok {
				problems = append(problems, "per-layer metric missing: "+d.Name)
			}
			put(d, v)
		}
	} else {
		e2e := map[string]float64{
			"setup_s":      median(setup),
			"ops_per_s":    median(opsPerS),
			"peak_rss_mib": median(rss),
		}
		for _, d := range endToEnd {
			put(d, e2e[d.Name])
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "fabbench %s seed %d: %d rounds (%s)\n", w.name, o.seed, len(rounds), map[bool]string{true: "traced", false: "untraced"}[traced])
	fmt.Fprintf(&b, "  op: %s\n  why: %s\n", w.op, w.why)
	fmt.Fprintf(&b, "  machine: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s, source %s\n",
		meta["cpu_model"], meta["num_cpu"], meta["gomaxprocs"], meta["go_version"], meta["commit"], meta["source_sha256"])
	fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "setup_s (median)", median(setup), "s")
	if len(opsPerS) > 0 {
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "ops_per_s (median)", median(opsPerS), "1/s")
	}
	fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "peak_rss_mib (median)", median(rss), "MiB")
	fmt.Fprintf(&b, "  %-34s %14.6g %s  (%d/%d per round)\n", "fail_ratio", float64(first.Failed)/float64(max(first.Attempted, 1)), "ratio", first.Failed, first.Attempted)
	fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "sim_makespan_s", first.MakespanS, "s")
	if first.RTTP50us > 0 {
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "sim_rtt_p50_us", first.RTTP50us, "us")
		fmt.Fprintf(&b, "  %-34s %14.6g %s\n", "sim_rtt_p99_us", first.RTTP99us, "us")
	}
	fmt.Fprintf(&b, "  %-34s %14s\n", "digest", first.Digest)
	for _, n := range first.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	if traced {
		fmt.Fprintf(&b, "  per-layer (measured phase; target = the end-to-end metric it should move):\n")
		for _, d := range perLayer {
			fmt.Fprintf(&b, "  %-34s %14.6g %-6s  -> %s\n", d.Name, layers[d.Name], d.Unit, d.Target)
		}
		fmt.Fprintf(&b, "  span self time (host s, median over traced rounds):\n")
		spans := map[string][]float64{}
		for _, r := range rounds {
			for k, v := range r.SpanSelfS {
				spans[k] = append(spans[k], v)
			}
		}
		names := make([]string, 0, len(spans))
		for k := range spans {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-34s %14.6g s\n", k, median(spans[k]))
		}
	}
	for _, p := range problems {
		fmt.Fprintf(&b, "  FAIL: %s\n", p)
	}
	fmt.Print(b.String())

	result := map[string]any{"correct": len(problems) == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
	record := map[string]any{"result": result, "meta": meta, "workload": w.name, "op": w.op, "why": w.why,
		"seconds": o.seconds, "rounds": rounds, "problems": problems}
	if err := writeRecord(o, record); err != nil {
		fmt.Fprintf(os.Stderr, "fabbench: record not written: %v\n", err)
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// mergeLayers combines the traced rounds: the median of each measured
// metric, and self/set-up shares from the summed profile samples.
func mergeLayers(rounds []*roundResult) map[string]float64 {
	vals := map[string][]float64{}
	self, setupNs := map[string]int64{}, map[string]int64{}
	for _, r := range rounds {
		if !r.Traced {
			continue
		}
		for k, v := range r.Layers {
			vals[k] = append(vals[k], v)
		}
		for k, v := range r.SelfNs {
			self[k] += v
		}
		for k, v := range r.SetupNs {
			setupNs[k] += v
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	for k, v := range selfPct(self, profiledModules, ".self_pct") {
		out[k] = v
	}
	for k, v := range selfPct(setupNs, setupModules, ".setup_pct") {
		out[k] = v
	}
	return out
}

// checkEarlierRuns compares this run's deterministic results with those of
// an earlier run of the same workload, seed and source tree in this
// checkout, traced or not, and records them for later runs. It returns a
// problem description, or "" when they agree or there is nothing to check.
func checkEarlierRuns(o options, source string, facts simFacts) string {
	type record struct {
		Source string   `json:"source_sha256"`
		Facts  simFacts `json:"facts"`
	}
	path := filepath.Join(outDir(o), "determinism.json")
	if data, err := os.ReadFile(path); err == nil {
		var prev record
		if json.Unmarshal(data, &prev) == nil && prev.Source == source {
			if prev.Facts != facts {
				return fmt.Sprintf("disagrees with an earlier run of this seed: %+v vs %+v", facts, prev.Facts)
			}
			return ""
		}
	}
	data, err := json.Marshal(record{Source: source, Facts: facts})
	if err == nil {
		err = os.MkdirAll(outDir(o), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabbench: determinism record not written: %v\n", err)
	}
	return ""
}

func writeRecord(o options, record map[string]any) error {
	dir := outDir(o)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-trace%d.json", o.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// machineMeta records where and on what a result was measured. The commit
// comes from the build's VCS stamp when there is one; the source digest
// identifies the code even in a checkout without git metadata.
func machineMeta(o options) map[string]any {
	meta := map[string]any{
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        "unknown",
		"source_sha256": sourceDigest(o.root),
		"seed":          o.seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				meta["commit"] = s.Value
			}
		}
	}
	return meta
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, skipping
// build output, as a short hex id.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
