package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs the benchmark at tiny scale and returns its result line.
func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "1", "--seconds", "0.01", "--tiny"}
	if trace {
		args = append(args, "--trace", "1", "--out", t.TempDir())
	} else {
		args = append(args, "--trace", "0")
	}
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: result %+v\n%s", workload, res, out.String())
	}
	return res
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runTiny(t, w.Name, false)
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("end-to-end run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s and a positive value", m.Name, got, ok, m.Unit)
				}
			}
			res = runTiny(t, w.Name, true)
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

func TestPerturbedReferenceFailsExactlyThatPoint(t *testing.T) {
	w, err := workloadByName("faults")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 3, scale: scale{tiny: true}}
	first := prepare(w, o, nil, 1, io.Discard)
	ref := &reference{}
	ref.record(w.name, o.seed, first.check.names, first.serial)

	if fails := prepare(w, o, ref, 1, io.Discard).check.failures(); len(fails) != 0 {
		t.Fatalf("unperturbed reference fails %v", fails)
	}
	const k = 5
	digests := ref.Workloads[w.name].Seeds["3"]
	digests[k] = (first.serial[k] + 1).String()
	fails := prepare(w, o, ref, 1, io.Discard).check.failures()
	if len(fails) != 1 || !strings.HasPrefix(fails[0], first.check.names[k]+": ") {
		t.Fatalf("perturbing point %d (%s) failed %v", k, first.check.names[k], fails)
	}
}

func TestObserversLeaveDigestsUnchanged(t *testing.T) {
	for _, w := range workloads {
		g := w.build(2, scale{tiny: true})
		r := repro.Runner{Workers: w.workers}
		plain := g.pass(&r)
		var k counting
		observed := g.observed(&k).pass(&r)
		for i, name := range g.names() {
			if plain[i] != observed[i] {
				t.Errorf("%s: attaching the counting observers changed %s", w.name, name)
			}
		}
		if c := k.total(); c.broadcasts == 0 || c.deliveries == 0 || c.sends == 0 {
			t.Errorf("%s: observers counted nothing: %+v", w.name, c)
		}
	}
}

func TestPoolAndSerialPassesAgree(t *testing.T) {
	w, err := workloadByName("faults")
	if err != nil {
		t.Fatal(err)
	}
	g := w.build(4, scale{tiny: true})
	serial := g.pass(&repro.Runner{Workers: 1})
	pooled := g.pass(&repro.Runner{Workers: 4})
	for i, name := range g.names() {
		if serial[i] != pooled[i] {
			t.Errorf("%s differs between 1 and 4 workers", name)
		}
	}
}

func TestReferenceCoversSeedOne(t *testing.T) {
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		names, ds := ref.lookup(w.name, 1)
		want := w.build(1, scale{}).names()
		if len(ds) != len(want) || strings.Join(names, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: reference has %d digests for points %v, grid has %v", w.name, len(ds), names, want)
		}
	}
}

func TestSeedOneMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full scale")
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cg := prepare(w, options{seed: 1}, ref, 1, io.Discard)
		if fails := cg.check.failures(); len(fails) != 0 {
			t.Errorf("%s: %v", w.name, fails)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess2_fast64
             repro/internal/proto.(*IDTracker).Seen (inline)
             repro/internal/seqabcast.(*Process).OnMessage
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             repro/internal/sim.(*Engine).Run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
    1.20s   repro/internal/gm.mergeFlushes.func1
             sort.Sort
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.schedule
-----------+-------------------------------------------------------
`
	a, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	want := map[string]time.Duration{"proto": 30 * ms, "sim": 20 * ms, "gc": 10 * ms, "gm": 1200 * ms, "other": 10 * ms}
	for l, d := range want {
		if a.layer[l] != d {
			t.Errorf("layer %s: %v, want %v", l, a.layer[l], d)
		}
	}
	if a.total != 1270*ms || a.mapOps != 30*ms || a.alloc != 20*ms {
		t.Errorf("total %v map %v alloc %v, want 1.27s 30ms 20ms", a.total, a.mapOps, a.alloc)
	}
	if got, want := a.covered(), 1-10.0/1270; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
}
