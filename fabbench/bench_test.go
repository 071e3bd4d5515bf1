package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSmokeWorkloads runs every workload at toy scale, untraced and
// traced: both must pass their output checks and agree on every
// deterministic result, and the traced round must yield every per-layer
// metric.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRound(w, w.smoke, 7, false, "smoke")
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRound(w, w.smoke, 7, true, "smoke")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*round{plain, traced} {
				if len(r.res.Errors) > 0 {
					t.Fatalf("output checks failed: %v", r.res.Errors)
				}
				if r.res.Ops <= 0 || r.res.Attempted < r.res.Ops || r.res.SetupS <= 0 || r.res.MeasureS <= 0 {
					t.Fatalf("implausible result %+v", r.res)
				}
			}
			if plain.res.simFacts != traced.res.simFacts {
				t.Fatalf("tracing changed the run: %+v vs %+v", plain.res.simFacts, traced.res.simFacts)
			}
			layers := mergeLayers([]*roundResult{&traced.res})
			layers["bench.trace_overhead_pct"] = 0
			for _, d := range perLayer {
				if _, ok := layers[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if len(traced.spans.spans) == 0 || len(traced.profiles["measure"]) == 0 {
				t.Errorf("traced round recorded %d spans and a %d-byte profile", len(traced.spans.spans), len(traced.profiles["measure"]))
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the workload
// and metric tables the program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			var lines []string
			for _, d := range want {
				lines = append(lines, fmt.Sprintf(`    {"name": %q, "unit": %q, "better": %q}`, d.Name, d.Unit, d.Better))
			}
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program:\n%s", kind, len(got), len(want), strings.Join(lines, ",\n"))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "dumbnet/internal/flowsim.(*Simulator).settle", "main.main"}, "flowsim"},
		{[]string{"dumbnet/internal/sim.(*Engine).Run.func1", "dumbnet/internal/core.(*Network).Run"}, "sim"},
		{[]string{"sort.Slice", "main.percentile", "main.main"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
