package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dumbnet/internal/core"
	"dumbnet/internal/flowsim"
	"dumbnet/internal/hybrid"
	"dumbnet/internal/topo"
	"dumbnet/internal/workload"
)

// Hybrid-mode benchmarks: the fluid-flow engine that reaches k=32/k=64
// fat-trees, plus the memory-footprint accounting every bench run records.

// heapSysBytes reports the Go heap's OS footprint.
func heapSysBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapSys)
}

// peakRSSBytes reads the process high-water RSS (VmHWM) from
// /proc/self/status; 0 where the OS does not expose it.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// hybridBenches extends the microbenchmark suite with the fluid layer's
// hot paths: the incremental max-min recompute under flow churn, and an
// end-to-end k=8 fat-tree transfer wave through route reservation, fluid
// advance and completion events.
func hybridBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"FlowsimChurn512", func(b *testing.B) {
			// 8 spines x 16 leaves, 512 long-lived flows; each op adds one
			// short flow and runs it to completion — the incremental
			// recompute re-waterfills only the affected bottleneck set.
			ls := workload.NewLeafSpine(8, 16, 4, 10e9, 40e9)
			s := flowsim.NewSimulator(ls.Net)
			for i := 0; i < 512; i++ {
				src := i % ls.Hosts()
				dst := (i*7 + 1) % ls.Hosts()
				if ls.Leaf(src) == ls.Leaf(dst) {
					dst = (dst + ls.HostsPerLeaf) % ls.Hosts()
				}
				s.Add(&flowsim.Flow{ID: i + 1, Path: ls.PathVia(src, dst, i%8), Size: 1e18})
			}
			s.RunUntil(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := 1000 + i
				src := i % ls.Hosts()
				dst := (i*11 + 3) % ls.Hosts()
				if ls.Leaf(src) == ls.Leaf(dst) {
					dst = (dst + ls.HostsPerLeaf) % ls.Hosts()
				}
				f := &flowsim.Flow{ID: id, Path: ls.PathVia(src, dst, i%8), Size: 1e6, Start: s.Now()}
				s.Add(f)
				for !f.Finished {
					t, ok := s.NextEventTime()
					if !ok {
						b.Fatal("flow never finished")
					}
					s.RunUntil(t)
				}
			}
		}},
		{"HybridK8Wave", func(b *testing.B) {
			ft, err := topo.FatTree(8, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			n, err := core.New(ft, core.WithSeed(1), core.WithHybridFlows(hybrid.Config{}))
			if err != nil {
				b.Fatal(err)
			}
			if err := n.Bootstrap(); err != nil {
				b.Fatal(err)
			}
			hosts := n.Hosts()
			// Warm wave so steady state (path tables hot) is measured.
			wave := func() {
				for i := range hosts {
					if _, err := n.OpenFlow(hosts[i], hosts[(i+11)%len(hosts)], 1<<20, nil); err != nil {
						b.Fatal(err)
					}
				}
				n.Run()
			}
			wave()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wave()
			}
			b.StopTimer()
			if st := n.Hybrid().Stats(); st.Active != 0 || st.Failed > 0 {
				b.Fatalf("fluid layer not clean: %+v", st)
			}
		}},
	}
}

// runHybridScale deploys a k-ary fat-tree with k/2 hosts per edge switch
// (8192 hosts at k=32), runs the HiBench suite through the hybrid layer
// on one core, and returns a bench record carrying virtual duration,
// events/sec and the memory high-water marks.
func runHybridScale(k, width int, inputGB float64) (benchResult, error) {
	res := benchResult{Name: fmt.Sprintf("HybridScaleK%d", k)}
	ft, err := topo.FatTree(k, k/2, 0)
	if err != nil {
		return res, err
	}
	hostsN := len(ft.Hosts())
	fmt.Fprintf(os.Stderr, "hybrid-scale: k=%d fat-tree, %d hosts, %d switches, shuffle width %d, %.2f GB/job\n",
		k, hostsN, len(ft.SwitchIDs()), width, inputGB)
	n, err := core.New(ft, core.WithSeed(1), core.WithHybridFlows(hybrid.Config{}))
	if err != nil {
		return res, err
	}
	start := time.Now()
	if err := n.Bootstrap(); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "hybrid-scale: bootstrapped in %v\n", time.Since(start))

	c := &workload.Cluster{Layer: n.Hybrid()}
	for _, m := range n.Hosts() {
		c.Agents = append(c.Agents, n.Agent(m))
		c.MACs = append(c.MACs, m)
	}
	jobs := workload.HiBenchSuiteWidth(c.Workers(), width, inputGB)

	// Warm the path tables for every pair the shuffles will use, so the
	// measured phase exercises the simulation loop rather than first-touch
	// controller path computation, and stage starts admit their whole flow
	// batch on one engine tick.
	start = time.Now()
	for s := 0; s < c.Workers(); s++ {
		for i := 1; i <= width; i++ {
			if err := c.Agents[s].WarmUp(c.MACs[(s+i)%c.Workers()]); err != nil {
				return res, err
			}
		}
	}
	n.Run()
	fmt.Fprintf(os.Stderr, "hybrid-scale: warmed %d host pairs in %v\n", c.Workers()*width, time.Since(start))

	wall := time.Now()
	ev0 := n.Eng.Processed()
	durs, err := workload.RunJobsOnFabric(jobs, c)
	if err != nil {
		return res, err
	}
	wallSec := time.Since(wall).Seconds()
	events := n.Eng.Processed() - ev0
	st := n.Hybrid().Stats()
	for i, j := range jobs {
		fmt.Fprintf(os.Stderr, "hybrid-scale: %-12s %8.3fs virtual\n", j.Name, float64(durs[i])/1e9)
	}
	fmt.Fprintf(os.Stderr, "hybrid-scale: %d flows completed, %d engine events in %.1fs wall (%.0f events/sec), digest %016x\n",
		st.Completed, events, wallSec, float64(events)/wallSec, n.Hybrid().Digest())
	settles, reRates := n.Hybrid().FluidDebug()
	fmt.Fprintf(os.Stderr, "hybrid-scale: %d settle passes, %d flow re-rates\n", settles, reRates)

	res.Iterations = 1
	res.NsPerOp = float64(time.Since(wall).Nanoseconds())
	res.EventsPerSec = float64(events) / wallSec
	res.FlowsCompleted = int64(st.Completed)
	res.SettlePasses, res.FlowReRates = settles, reRates
	res.Digest = fmt.Sprintf("%016x", n.Hybrid().Digest())
	res.HeapSysBytes = heapSysBytes()
	res.PeakRSSBytes = peakRSSBytes()
	return res, nil
}

// runHybridScaleJSON records a hybrid scale run in BENCH_results.json
// format (appending when the file exists and appendRun is set).
func runHybridScaleJSON(path, label string, appendRun bool, k, width int, inputGB float64) error {
	res, err := runHybridScale(k, width, inputGB)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "hybrid-scale: peak RSS %.1f MiB, heap sys %.1f MiB\n",
		float64(res.PeakRSSBytes)/(1<<20), float64(res.HeapSysBytes)/(1<<20))
	if path == "" {
		return nil
	}
	file := benchFile{Schema: benchSchema}
	if appendRun {
		if f, err := readBenchFile(path); err == nil {
			file = f
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	run := benchRun{
		Label:      label,
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: []benchResult{res},
	}
	run.HeapSysBytes = res.HeapSysBytes
	run.PeakRSSBytes = res.PeakRSSBytes
	file.Runs = append(file.Runs, run)
	return writeBenchFile(path, file)
}
