package main

import (
	"fmt"
	"time"

	"repro"
)

// A workload is a fixed grid of experiment points driven through the
// public repro.Runner. Inside every simulation the load is an open-loop
// Poisson workload in virtual time, seeded from the benchmark's --seed.
type workload struct {
	name string
	// workers is the Runner pool size of the timed passes: 1 is serial,
	// 0 selects one worker per CPU.
	workers int
	// build is the workload's set-up: it constructs every config,
	// topology (routing tables compiled) and group map of the grid.
	build func(seed uint64, s scale) *grid
}

// scale shrinks a workload's virtual durations and replication counts;
// full is the benchmark, tiny is for the benchmark's own tests.
type scale struct {
	tiny bool
}

// measure returns d at full scale and a fifth of it (at least 200 ms)
// at tiny scale.
func (s scale) measure(d time.Duration) time.Duration {
	if !s.tiny {
		return d
	}
	if d /= 5; d < 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	return d
}

// reps returns r at full scale and 1 at tiny scale.
func (s scale) reps(r int) int {
	if s.tiny {
		return 1
	}
	return r
}

// grid is one workload's inputs: steady-state points run through
// Runner.SteadyAll, then crash-transient points through
// Runner.TransientAll. Every point has a name and its own seed.
type grid struct {
	seed           uint64
	steady         []repro.Config
	steadyNames    []string
	transient      []repro.TransientConfig
	transientNames []string
}

// pointSeed derives the seed of the grid's next point from the workload
// seed. Distinct points get independent random streams, so the work of a
// pass varies little from one workload seed to the next.
func (g *grid) pointSeed() uint64 {
	x := g.seed ^ splitmix(uint64(len(g.steady)+len(g.transient)+1))
	if x = splitmix(x); x == 0 {
		x = 1
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (g *grid) addSteady(name string, cfg repro.Config) {
	cfg.Seed = g.pointSeed()
	g.steady = append(g.steady, cfg)
	g.steadyNames = append(g.steadyNames, name)
}

func (g *grid) addTransient(name string, cfg repro.TransientConfig) {
	cfg.Seed = g.pointSeed()
	g.transient = append(g.transient, cfg)
	g.transientNames = append(g.transientNames, name)
}

// names lists the point names in result order: steady, then transient.
func (g *grid) names() []string {
	return append(append([]string(nil), g.steadyNames...), g.transientNames...)
}

// replications is the number of simulations one pass over the grid runs.
func (g *grid) replications() int {
	n := 0
	for _, c := range g.steady {
		n += c.Replications
	}
	for _, c := range g.transient {
		n += c.Replications
	}
	return n
}

// workloads lists the benchmark's workloads in report order.
var workloads = []workload{
	{
		name:    "steady",
		workers: 1,
		build:   buildSteady,
	},
	{
		name:    "faults",
		workers: 0,
		build:   buildFaults,
	},
	{
		name:    "topology",
		workers: 1,
		build:   buildTopology,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// algName is the short algorithm label used in point names.
func algName(a repro.Algorithm) string {
	if a == repro.FD {
		return "fd"
	}
	return "gm"
}

// buildSteady is the Figs 4/5/6 grid: FullMesh n ∈ {3, 7}, FD and GM,
// throughputs from light load to near saturation, each crossed with the
// three steady scenarios. It is the paper's core traffic, where the
// protocol-state layers and the kernel do the work; groups, topology
// routing and the runner pool do none.
func buildSteady(seed uint64, s scale) *grid {
	g := &grid{seed: seed}
	scenarios := []struct {
		name  string
		apply func(cfg *repro.Config)
	}{
		{"normal", func(*repro.Config) {}},
		// Crash the highest PID, as the paper's Fig. 5 does.
		{"crash", func(cfg *repro.Config) { cfg.Crashed = []repro.ProcessID{repro.ProcessID(cfg.N - 1)} }},
		// Wrong suspicions at a recurrence every point survives stably.
		{"suspicion", func(cfg *repro.Config) { cfg.QoS = repro.Detectors(0, 3000, 0) }},
	}
	for _, n := range []int{3, 7} {
		for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
			for _, thr := range []float64{100, 300, 500} {
				for _, sc := range scenarios {
					cfg := repro.Config{
						Algorithm:    alg,
						N:            n,
						Throughput:   thr,
						Warmup:       500 * time.Millisecond,
						Measure:      s.measure(3 * time.Second),
						Drain:        10 * time.Second,
						Replications: s.reps(3),
					}
					sc.apply(&cfg)
					g.addSteady(fmt.Sprintf("%s/n%d/%s/%.0f", sc.name, n, algName(alg), thr), cfg)
				}
			}
		}
	}
	return g
}

// buildFaults is the Fig 8 crash-transient grid at n=7 (the coordinator
// or sequencer p0 crashes, the probe comes from every survivor) plus the
// partition-and-heal and crash-recover-crash plans at n=5, each with and
// without a 4x burst. Hundreds of short replications make per-replication
// construction and the runner pool matter, and the failure paths —
// detection, heartbeat traffic, GM exclusion, rejoin and state transfer,
// FD catch-up, consensus round changes — run here and nowhere else.
func buildFaults(seed uint64, s scale) *grid {
	g := &grid{seed: seed}
	detectors := []struct {
		name string
		qos  repro.QoS
		hb   *repro.HeartbeatConfig
	}{
		{"td10", repro.Detectors(10, 0, 0), nil},
		{"td100", repro.Detectors(100, 0, 0), nil},
		{"hb10-30", repro.QoS{}, repro.HeartbeatDetector(10, 30)},
	}
	const n = 7
	for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
		for _, thr := range []float64{50, 100} {
			for _, det := range detectors {
				for q := 1; q < n; q++ {
					g.addTransient(fmt.Sprintf("transient/%s/%.0f/%s/q%d", algName(alg), thr, det.name, q),
						repro.TransientConfig{
							Config: repro.Config{
								Algorithm:    alg,
								N:            n,
								Throughput:   thr,
								QoS:          det.qos,
								Detector:     det.hb,
								Warmup:       s.measure(500 * time.Millisecond),
								Drain:        5 * time.Second,
								Replications: s.reps(8),
							},
							Crash:  0,
							Sender: repro.ProcessID(q),
						})
				}
			}
		}
	}

	const m = 5
	warmup := 500 * time.Millisecond
	measure := s.measure(4 * time.Second)
	at := func(frac float64) time.Duration { return warmup + time.Duration(frac*float64(measure)) }
	plans := []struct {
		name string
		plan *repro.FaultPlan
	}{
		{"partition", repro.NewFaultPlan().
			Partition(at(0.3), []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
			Heal(at(0.6))},
		{"churn", repro.NewFaultPlan().
			Crash(at(0.2), 0).
			Recover(at(0.5), 0).
			Crash(at(0.8), 0)},
	}
	loads := []struct {
		name string
		load *repro.LoadPlan
	}{
		{"steady", nil},
		{"burst4x", repro.NewLoadPlan().Burst(at(0.4), measure*3/10, repro.AllSenders, 4)},
	}
	for _, alg := range []repro.Algorithm{repro.FD, repro.GM} {
		for _, p := range plans {
			for _, l := range loads {
				g.addSteady(fmt.Sprintf("%s/%s/%s", p.name, l.name, algName(alg)), repro.Config{
					Algorithm:    alg,
					N:            m,
					Throughput:   100,
					QoS:          repro.Detectors(10, 0, 0),
					Plan:         p.plan,
					Load:         l.load,
					Warmup:       warmup,
					Measure:      measure,
					Drain:        10 * time.Second,
					Replications: s.reps(4),
				})
			}
		}
	}
	return g
}

// buildTopology is the nscale and groups shape: FD at a low rate on four
// connectivity graphs of 128-256 processes, then 8-group genuine
// multicast on a Geo(8x3) layout at shard-local and 10% cross-shard
// traffic, both below the cross-shard capacity ceiling. It is the only
// workload with hop-by-hop relays, set multicasts and the groups router;
// every topology's routing tables are compiled here, in set-up.
func buildTopology(seed uint64, s scale) *grid {
	g := &grid{seed: seed}
	wan := repro.Wire{Delay: 5 * time.Millisecond}
	topos := []*repro.Topology{
		repro.Geo(repro.GeoConfig{Sites: 4, PerSite: 64, WAN: wan}),
		repro.Ring(128),
		repro.Clique(128),
		repro.FullMesh(128),
	}
	for _, t := range topos {
		t.Routing()
		g.addSteady(fmt.Sprintf("nscale/%s", t.Name), repro.Config{
			Algorithm:    repro.FD,
			N:            t.N,
			Throughput:   10,
			Topology:     t,
			Warmup:       500 * time.Millisecond,
			Measure:      s.measure(8 * time.Second),
			Drain:        20 * time.Second,
			Replications: s.reps(6),
		})
	}
	geo := repro.Geo(repro.GeoConfig{Sites: 8, PerSite: 3, WAN: wan})
	geo.Routing()
	gmap := repro.GroupsFromSites(geo)
	for _, cross := range []float64{0, 0.1} {
		g.addSteady(fmt.Sprintf("groups/geo8x3/cross%.2f", cross), repro.Config{
			Algorithm:    repro.FD,
			N:            geo.N,
			Throughput:   8 * 100,
			Topology:     geo,
			Groups:       gmap,
			CrossShard:   cross,
			Warmup:       500 * time.Millisecond,
			Measure:      s.measure(4 * time.Second),
			Drain:        20 * time.Second,
			Replications: s.reps(2),
		})
	}
	return g
}
