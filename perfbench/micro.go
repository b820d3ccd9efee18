package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/experiment"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Microbenchmarks are the benchmark's own timed calls into each layer's
// public functions, sized from the workloads' shapes. Each returns the
// cost of one operation; runMicros reports the median of several
// repetitions.

type micro struct {
	metric string
	unit   string
	run    func(seed uint64, s scale) float64
}

var micros = []micro{
	{"sim.ns_per_event", "ns", simEvents},
	{"netmodel.ns_per_multicast.mesh7", "ns", func(seed uint64, s scale) float64 {
		return multicasts(netmodel.DefaultConfig(7), s.ops(60000))
	}},
	{"netmodel.ns_per_multicast.geo", "ns", func(seed uint64, s scale) float64 {
		cfg := netmodel.DefaultConfig(256)
		cfg.Topology = geo256()
		cfg.Topology.Routing()
		return multicasts(cfg, s.ops(400))
	}},
	{"topo.compile_ms.geo256", "ms", func(uint64, scale) float64 {
		t0 := time.Now()
		geo256().Routing()
		return float64(time.Since(t0)) / float64(time.Millisecond)
	}},
	{"groups.us_per_multicast", "us", groupMulticasts},
	{"experiment.build_us.fd", "us", func(seed uint64, s scale) float64 { return coreBuilds(experiment.FD, seed, s.ops(300)) }},
	{"experiment.build_us.gm", "us", func(seed uint64, s scale) float64 { return coreBuilds(experiment.GM, seed, s.ops(300)) }},
	{"stats.ns_per_add.exact", "ns", collectorAdds},
	{"ctabcast.us_per_abcast.n3", "us", func(seed uint64, s scale) float64 { return abcasts(repro.FD, 3, seed, s.ops(3000)) }},
	{"ctabcast.us_per_abcast.n7", "us", func(seed uint64, s scale) float64 { return abcasts(repro.FD, 7, seed, s.ops(1500)) }},
	{"seqabcast.us_per_abcast.n3", "us", func(seed uint64, s scale) float64 { return abcasts(repro.GM, 3, seed, s.ops(3000)) }},
	{"seqabcast.us_per_abcast.n7", "us", func(seed uint64, s scale) float64 { return abcasts(repro.GM, 7, seed, s.ops(1500)) }},
}

// ops returns n at full scale and a tenth of it at tiny scale.
func (s scale) ops(n int) int {
	if s.tiny {
		return (n + 9) / 10
	}
	return n
}

// microReps is the number of repetitions each microbenchmark's median
// is taken over.
const microReps = 5

// runMicros times every microbenchmark and returns metric name -> median.
func runMicros(seed uint64, s scale) map[string]float64 {
	out := make(map[string]float64, len(micros))
	for _, d := range micros {
		vals := make([]float64, microReps)
		for i := range vals {
			vals[i] = d.run(seed, s)
		}
		out[d.metric] = median(vals)
	}
	return out
}

// geo256 is the nscale Geo layout of the topology workload: 4 sites of
// 64 processes joined by 5 ms WAN links.
func geo256() *repro.Topology {
	return repro.Geo(repro.GeoConfig{Sites: 4, PerSite: 64, WAN: repro.Wire{Delay: 5 * time.Millisecond}})
}

// chain is a sim.MsgHandler that keeps a fixed number of events in
// flight, rescheduling each one at a pseudo-random delay until its
// budget is spent.
type chain struct {
	eng  *sim.Engine
	left int
	x    uint64
}

func (c *chain) HandleMsg(op uint8, a, b int, payload any) {
	if c.left <= 0 {
		return
	}
	c.left--
	c.x = c.x*6364136223846793005 + 1442695040888963407
	c.eng.AfterMsg(time.Duration(c.x>>54)*time.Microsecond, c, op, a, b, payload)
}

// simEvents is the kernel's cost per event with 512 events pending, in
// the closure-free form the network model's hot path uses.
func simEvents(seed uint64, s scale) float64 {
	eng := sim.New()
	total := s.ops(400000)
	c := &chain{eng: eng, left: total, x: seed}
	t0 := time.Now()
	for i := 0; i < 512; i++ {
		eng.AfterMsg(time.Duration(i)*time.Microsecond, c, 0, i, i, nil)
	}
	n := eng.Run()
	if n < uint64(total) {
		panic(fmt.Sprintf("sim microbenchmark ran %d events, want at least %d", n, total))
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// multicastPayload is boxed once so the microbenchmark allocates nothing itself.
var multicastPayload any = &struct{ seq int }{}

// multicasts is the network model's cost per multicast fan-out through
// the CPU→wire→CPU pipeline.
func multicasts(cfg netmodel.Config, ops int) float64 {
	eng := sim.New()
	nw := netmodel.New(eng, cfg, func(int, int, any) {})
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		nw.Multicast(i%cfg.N, multicastPayload)
		if i%256 == 255 {
			eng.Run()
		}
	}
	eng.Run()
	if got := nw.Counters(); got.Deliveries == 0 {
		panic("netmodel microbenchmark delivered nothing")
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// groupMulticasts is one shard-local genuine multicast through the
// groups router on the topology workload's Geo(8x3) layout, ordered and
// delivered.
func groupMulticasts(seed uint64, s scale) float64 {
	t := repro.Geo(repro.GeoConfig{Sites: 8, PerSite: 3, WAN: repro.Wire{Delay: 5 * time.Millisecond}})
	gmap := repro.GroupsFromSites(t)
	delivered := 0
	c := repro.NewCluster(repro.ClusterConfig{
		Algorithm: repro.FD, N: t.N, Seed: seed, Topology: t, Groups: gmap,
		OnDeliver: func(repro.Delivery) { delivered++ },
	})
	ops := s.ops(1500)
	dest := make([]int, 1)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		p := i % t.N
		dest[0] = gmap.Home(repro.ProcessID(p))
		c.Multicast(p, dest, i)
		c.Run(20 * time.Millisecond)
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(ops)
	if delivered == 0 {
		panic("groups microbenchmark delivered nothing")
	}
	return us
}

// coreBuilds is the cost of assembling one n=7 system (engine, network,
// detectors, protocol stacks) through experiment.NewCore, the
// per-replication construction every simulation pays.
func coreBuilds(alg experiment.Algorithm, seed uint64, ops int) float64 {
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		experiment.NewCore(experiment.CoreConfig{
			Algorithm: alg,
			N:         7,
			Lambda:    1,
			Renumber:  true,
			Seed:      seed + uint64(i),
			Deliver:   func(proto.PID, proto.MsgID, any, sim.Time) {},
		})
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(ops)
}

// collectorAdds is the cost of adding one latency to an exact-mode
// collector, the per-message statistic every steady point records.
func collectorAdds(seed uint64, s scale) float64 {
	rng := sim.NewRand(seed)
	xs := make([]float64, s.ops(500000))
	for i := range xs {
		xs[i] = 5 + rng.Exp(10)
	}
	var c stats.Collector
	t0 := time.Now()
	for _, x := range xs {
		c.Add(x)
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(len(xs))
	if c.N() != len(xs) {
		panic("stats microbenchmark lost observations")
	}
	return ns
}

// abcasts is one atomic broadcast ordered and delivered on an n-process
// cluster: NewCluster, then Broadcast and Run per operation.
func abcasts(alg repro.Algorithm, n int, seed uint64, ops int) float64 {
	delivered := 0
	t0 := time.Now()
	c := repro.NewCluster(repro.ClusterConfig{
		Algorithm: alg, N: n, Seed: seed,
		OnDeliver: func(repro.Delivery) { delivered++ },
	})
	for i := 0; i < ops; i++ {
		c.Broadcast(i%n, i)
		c.Run(20 * time.Millisecond)
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(ops)
	if delivered != ops*n {
		panic(fmt.Sprintf("abcast microbenchmark delivered %d, want %d", delivered, ops*n))
	}
	return us
}
