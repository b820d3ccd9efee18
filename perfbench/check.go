package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
)

// digest fingerprints one point's checked outputs. Virtual-time results
// are outputs, not metrics: a change that only makes the simulator
// faster leaves every digest bit-identical.
type digest uint64

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

type hasher struct{ buf []byte }

func (h *hasher) int(v int) { h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v)) }

func (h *hasher) float(v float64) { h.int(int(math.Float64bits(v))) }

func (h *hasher) bool(v bool) {
	if v {
		h.int(1)
	} else {
		h.int(0)
	}
}

func (h *hasher) quantiles(q repro.Quantiles) {
	h.int(q.N)
	for _, v := range []float64{q.Min, q.P50, q.P90, q.P99, q.Max} {
		h.float(v)
	}
}

func (h *hasher) sum() digest {
	f := fnv.New64a()
	f.Write(h.buf)
	return digest(f.Sum64())
}

// steadyDigest covers Messages, Undelivered, Stable, Diverged, the
// replication-mean latency and the pooled quantiles.
func steadyDigest(r repro.Result) digest {
	var h hasher
	h.int(r.Messages)
	h.int(r.Undelivered)
	h.bool(r.Stable)
	h.bool(r.Diverged)
	h.int(r.Latency.N)
	h.float(r.Latency.Mean)
	h.quantiles(r.Quantiles)
	return h.sum()
}

// transientDigest covers the lost-probe count, the probe latency mean
// and its quantiles.
func transientDigest(r repro.TransientResult) digest {
	var h hasher
	h.int(r.Lost)
	h.int(r.Latency.N)
	h.float(r.Latency.Mean)
	h.quantiles(r.Quantiles)
	return h.sum()
}

// reference holds recorded digests: per workload, the point names in
// result order and, per seed, one digest per point.
type reference struct {
	Workloads map[string]*workloadRef `json:"workloads"`
}

type workloadRef struct {
	Points []string            `json:"points"`
	Seeds  map[string][]string `json:"seeds"`
}

func parseReference(data []byte) (*reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference digests: %w", err)
	}
	return &ref, nil
}

// lookup returns the recorded digests of one workload at one seed, or
// nil when none were recorded for it.
func (r *reference) lookup(workload string, seed uint64) (names, digests []string) {
	if r == nil || r.Workloads[workload] == nil {
		return nil, nil
	}
	w := r.Workloads[workload]
	return w.Points, w.Seeds[strconv.FormatUint(seed, 10)]
}

// record stores one workload's digests at one seed.
func (r *reference) record(workload string, seed uint64, names []string, ds []digest) {
	if r.Workloads == nil {
		r.Workloads = make(map[string]*workloadRef)
	}
	w := r.Workloads[workload]
	if w == nil {
		w = &workloadRef{Seeds: make(map[string][]string)}
		r.Workloads[workload] = w
	}
	w.Points = names
	hex := make([]string, len(ds))
	for i, d := range ds {
		hex[i] = d.String()
	}
	w.Seeds[strconv.FormatUint(seed, 10)] = hex
}

// save writes the reference as JSON with one line per point name and
// one line per seed.
func (r *reference) save(path string) error {
	var b strings.Builder
	b.WriteString("{\"workloads\": {")
	for i, name := range sortedKeys(r.Workloads) {
		w := r.Workloads[name]
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n %q: {\n  \"points\": [", name)
		for j, p := range w.Points {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n   %q", p)
		}
		b.WriteString("\n  ],\n  \"seeds\": {")
		seeds := sortedKeys(w.Seeds)
		sort.Slice(seeds, func(i, j int) bool {
			return len(seeds[i]) < len(seeds[j]) || len(seeds[i]) == len(seeds[j]) && seeds[i] < seeds[j]
		})
		for j, seed := range seeds {
			line, err := json.Marshal(w.Seeds[seed])
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n   %q: %s", seed, line)
		}
		b.WriteString("\n  }\n }")
	}
	b.WriteString("\n}}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pointCheck is the outcome of checking every point of a grid. A point
// fails when it panics, when its digest differs from the reference or
// between passes; notes flag outputs worth a look (a lost probe, a
// diverged run) that are recorded behaviour, not failures.
type pointCheck struct {
	names  []string
	failed map[int]string // point index -> first failure reason
	notes  map[int]string
}

func newPointCheck(names []string) *pointCheck {
	return &pointCheck{names: names, failed: make(map[int]string), notes: make(map[int]string)}
}

func (c *pointCheck) note(i int, format string, args ...any) {
	c.notes[i] = fmt.Sprintf(format, args...)
}

func (c *pointCheck) fail(i int, format string, args ...any) {
	if _, ok := c.failed[i]; !ok {
		c.failed[i] = fmt.Sprintf(format, args...)
	}
}

// against compares digests with the recorded reference, if any; a
// reference that lists other points than the grid fails every point.
func (c *pointCheck) against(refNames, refDigests []string, got []digest) {
	if refDigests == nil {
		return
	}
	if len(refNames) != len(c.names) || len(refDigests) != len(c.names) {
		for i := range c.names {
			c.fail(i, "reference lists %d points, grid has %d", len(refNames), len(c.names))
		}
		return
	}
	for i, name := range c.names {
		if refNames[i] != name {
			c.fail(i, "reference point %d is %q", i, refNames[i])
		} else if got[i].String() != refDigests[i] {
			c.fail(i, "digest %s, reference %s", got[i], refDigests[i])
		}
	}
}

// same fails every point whose digest in a later pass differs from the
// serial verification pass; kept maps the pass's points to grid indices.
func (c *pointCheck) same(what string, serial []digest, kept []int, got []digest) {
	for k, i := range kept {
		if got[k] != serial[i] {
			c.fail(i, "%s differs from the serial pass", what)
		}
	}
}

// failures lists the failed points in grid order.
func (c *pointCheck) failures() []string { return c.list(c.failed) }

// noted lists the noted points in grid order.
func (c *pointCheck) noted() []string { return c.list(c.notes) }

func (c *pointCheck) list(reasons map[int]string) []string {
	idx := make([]int, 0, len(reasons))
	for i := range reasons {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = c.names[i] + ": " + reasons[i]
	}
	return out
}
