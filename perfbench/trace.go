package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/netmodel"
)

// Counts from the public observer hooks: A-broadcasts, A-deliveries and
// the network model's lifecycle points, with message sends keyed by the
// Go package that defines the payload's type.

// msgPackages are the payload packages reported as
// proto.msgs_per_abcast.<pkg>; payloads of any other package count as
// "other". (Consensus messages travel inside ctabcast's.)
var msgPackages = []string{"ctabcast", "seqabcast", "gm", "rbcast", "hbfd", "groups", "other"}

type counts struct {
	broadcasts, deliveries int
	sends, wires           int
	byPkg                  map[string]int
}

func (c *counts) merge(o *counts) {
	c.broadcasts += o.broadcasts
	c.deliveries += o.deliveries
	c.sends += o.sends
	c.wires += o.wires
	for k, v := range o.byPkg {
		c.byPkg[k] += v
	}
}

// counter is one replication's counting observer.
type counter struct {
	counts
	pkgOf map[reflect.Type]string
}

func (c *counter) ObserveDelivery(repro.ObservedDelivery) { c.deliveries++ }

func (c *counter) ObserveBroadcast(repro.ObservedBroadcast) { c.broadcasts++ }

func (c *counter) ObserveNet(ev netmodel.TraceEvent) {
	switch ev.Kind {
	case netmodel.TraceSend:
		c.sends++
		c.byPkg[c.pkg(ev.Payload)]++
	case netmodel.TraceWire:
		c.wires++
	}
}

// pkg names the package defining a payload's type (pointers followed).
func (c *counter) pkg(payload any) string {
	t := reflect.TypeOf(payload)
	if name, ok := c.pkgOf[t]; ok {
		return name
	}
	name := "other"
	if t != nil {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		path := strings.TrimPrefix(t.PkgPath(), "repro/internal/")
		for _, p := range msgPackages {
			if p == path {
				name = p
			}
		}
	}
	c.pkgOf[reflect.TypeOf(payload)] = name
	return name
}

// counting collects the counters of every replication of a run.
type counting struct {
	mu   sync.Mutex
	reps []*counter
}

// factory builds one counter per replication.
func (k *counting) factory(point, rep int, cfg repro.Config) repro.Observer {
	c := &counter{counts: counts{byPkg: make(map[string]int)}, pkgOf: make(map[reflect.Type]string)}
	k.mu.Lock()
	k.reps = append(k.reps, c)
	k.mu.Unlock()
	return c
}

func (k *counting) total() counts {
	sum := counts{byPkg: make(map[string]int)}
	for _, c := range k.reps {
		sum.merge(&c.counts)
	}
	return sum
}

// observed returns a copy of the grid with the counting observer
// attached to every point.
func (g *grid) observed(k *counting) *grid {
	out := &grid{steadyNames: g.steadyNames, transientNames: g.transientNames}
	for _, cfg := range g.steady {
		cfg.Observers = append(append([]repro.ObserverFactory(nil), cfg.Observers...), k.factory)
		out.steady = append(out.steady, cfg)
	}
	for _, cfg := range g.transient {
		cfg.Observers = append(append([]repro.ObserverFactory(nil), cfg.Observers...), k.factory)
		out.transient = append(out.transient, cfg)
	}
	return out
}

// Spans at the boundaries the benchmark owns: workload → Runner call →
// replication. They are kept in memory and written out at the end.

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the recorder was created
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // duration minus the child spans
}

type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) now() float64 { return time.Since(s.t0).Seconds() }

// open starts a span and returns its id.
func (s *spans) open(parent int, name string) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: s.now()})
	return len(s.list)
}

func (s *spans) close(id int) { s.list[id-1].End = s.now() }

// durations returns the durations in seconds of the spans named name.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// tracedPass runs the grid once like pass, recording a span per Runner
// call under parent and, when the runner is serial, a span per
// replication delimited by the Runner's Progress callbacks.
func (s *spans) tracedPass(g *grid, workers, parent int) []digest {
	var call, last int
	r := repro.Runner{Workers: workers}
	if workers == 1 {
		r.Progress = func(done, total int) {
			last = s.open(call, "replication")
			if done > 1 {
				s.list[last-1].Start = s.list[last-2].End
			} else {
				s.list[last-1].Start = s.list[call-1].Start
			}
			s.close(last)
		}
	}
	out := make([]digest, 0, len(g.steady)+len(g.transient))
	call = s.open(parent, "Runner.SteadyAll")
	for _, res := range r.SteadyAll(g.steady) {
		out = append(out, steadyDigest(res))
	}
	s.close(call)
	call = s.open(parent, "Runner.TransientAll")
	for _, res := range r.TransientAll(g.transient) {
		out = append(out, transientDigest(res))
	}
	s.close(call)
	return out
}

// write computes self times and saves the spans as JSON.
func (s *spans) write(path string) error {
	child := make(map[int]float64)
	for _, sp := range s.list {
		if sp.Parent != 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i := range s.list {
		s.list[i].Self = s.list[i].End - s.list[i].Start - child[s.list[i].ID]
	}
	data, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
