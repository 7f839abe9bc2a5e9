// Package obs is the runtime observability layer: a metrics registry
// (named, labeled counters, gauges and latency histograms, rendered in
// Prometheus text-exposition format) and per-transaction protocol
// tracing (see trace.go).
//
// The offline experiment harness keeps using internal/metrics
// directly; obs wraps the same primitives with names and labels so the
// *live* runtime (internal/site, internal/vmsg, internal/wal,
// internal/tcpnet) can be scraped and inspected while serving traffic.
//
// Every Registry method is nil-receiver-safe: a component handed a nil
// registry gets working but unregistered ("orphan") metric handles, so
// instrumentation sites never branch on whether observability is
// enabled.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvp/internal/metrics"
)

// Gauge is a settable instantaneous value (pending-set depth, queue
// length). Concurrency-safe.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one (name, label-set) time series and its handle.
type series struct {
	name    string
	labels  string // pre-rendered, sorted: `a="b",c="d"` (no braces)
	kind    metricKind
	counter *metrics.Counter
	gauge   *Gauge
	gaugeFn atomic.Pointer[func() float64] // replaced by re-registration while scrapes read it
	hist    *metrics.Histogram
}

// Registry holds named metrics for one process (or one simulated
// cluster: series are distinguished by labels, conventionally
// including site="s<i>"). Registration is idempotent — asking for the
// same name+labels returns the same handle — so components resolve
// handles at construction and record lock-free afterwards.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	order  []*series
	family map[string]metricKind
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:  make(map[string]*series),
		family: make(map[string]metricKind),
	}
}

// labelString renders k/v pairs sorted by key: `a="b",c="d"`.
// Panics on an odd-length labels list — that is a call-site bug.
func labelString(labels []string) string {
	if len(labels)%2 != 0 {
		panic("obs: odd label list")
	}
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p.k, p.v)
	}
	return sb.String()
}

// register resolves or creates the series for (name, labels). The
// create function runs under the registry lock.
func (r *Registry) register(name string, kind metricKind, labels []string, create func(*series)) *series {
	ls := labelString(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s registered as %s and %s", key, s.kind, kind))
		}
		return s
	}
	if fk, ok := r.family[name]; ok && fk != kind {
		panic(fmt.Sprintf("obs: family %s registered as %s and %s", name, fk, kind))
	}
	s := &series{name: name, labels: ls, kind: kind}
	create(s)
	r.byKey[key] = s
	r.order = append(r.order, s)
	r.family[name] = kind
	return s
}

// Counter returns the counter for name with the given k,v label pairs,
// creating it on first use. Nil-safe: a nil registry returns a working
// unregistered counter.
func (r *Registry) Counter(name string, labels ...string) *metrics.Counter {
	if r == nil {
		return &metrics.Counter{}
	}
	s := r.register(name, kindCounter, labels, func(s *series) {
		s.counter = &metrics.Counter{}
	})
	return s.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	s := r.register(name, kindGauge, labels, func(s *series) {
		s.gauge = &Gauge{}
	})
	return s.gauge
}

// GaugeFunc registers a gauge sampled by calling fn at exposition
// time. fn runs without any registry lock held, so it may take its
// own locks freely. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	// Set at creation, under the registry lock, so a concurrent scrape
	// never sees a series without its function; stored again for the
	// re-registration case.
	s := r.register(name, kindGaugeFunc, labels, func(s *series) { s.gaugeFn.Store(&fn) })
	s.gaugeFn.Store(&fn)
}

// Histogram returns the latency histogram for name+labels, creating it
// on first use. Exposition renders it as a Prometheus histogram in
// seconds.
func (r *Registry) Histogram(name string, labels ...string) *metrics.Histogram {
	if r == nil {
		return &metrics.Histogram{}
	}
	s := r.register(name, kindHistogram, labels, func(s *series) {
		s.hist = &metrics.Histogram{}
	})
	return s.hist
}

// snapshot copies the series list so rendering (and gauge sampling)
// happens outside the registry lock.
func (r *Registry) snapshot() []*series {
	r.mu.Lock()
	out := append([]*series(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4). Durations are exposed in
// seconds. Safe to call while recorders are running.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var lastFamily string
	for _, s := range r.snapshot() {
		if s.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			lastFamily = s.name
		}
		if err := s.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Render returns the Prometheus exposition as a string.
func (r *Registry) Render() string {
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	return sb.String()
}

func (s *series) write(w io.Writer) error {
	braced := ""
	if s.labels != "" {
		braced = "{" + s.labels + "}"
	}
	switch s.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, braced, s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", s.name, braced, s.gauge.Value())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %g\n", s.name, braced, (*s.gaugeFn.Load())())
		return err
	case kindHistogram:
		return s.writeHistogram(w)
	}
	return nil
}

// writeHistogram renders the histogram with one cumulative `le` bucket
// per non-empty internal bucket (cumulative counts stay correct when
// empty bounds are elided), plus +Inf, _sum and _count.
func (s *series) writeHistogram(w io.Writer) error {
	sep := ""
	if s.labels != "" {
		sep = ","
	}
	var cum uint64
	var err error
	s.hist.ForEachBucket(func(upper time.Duration, n uint64) {
		if err != nil {
			return
		}
		cum += n
		_, err = fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n",
			s.name, s.labels, sep, fmt.Sprintf("%g", upper.Seconds()), cum)
	})
	if err != nil {
		return err
	}
	braced := ""
	if s.labels != "" {
		braced = "{" + s.labels + "}"
	}
	count := s.hist.Count()
	if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", s.name, s.labels, sep, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", s.name, braced, s.hist.Sum().Seconds()); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s_count%s %d\n", s.name, braced, count)
	return err
}

// CounterValue reads one exact counter series (0 if absent) — for
// tests and examples.
func (r *Registry) CounterValue(name string, labels ...string) uint64 {
	if r == nil {
		return 0
	}
	key := name + "{" + labelString(labels) + "}"
	r.mu.Lock()
	s, ok := r.byKey[key]
	r.mu.Unlock()
	if !ok || s.kind != kindCounter {
		return 0
	}
	return s.counter.Value()
}

// SumCounters sums every counter series of the family whose label set
// includes all the given k,v pairs (e.g. all sites' committed-txn
// counters). Non-counter series are ignored.
func (r *Registry) SumCounters(name string, labels ...string) uint64 {
	if r == nil {
		return 0
	}
	if len(labels)%2 != 0 {
		panic("obs: odd label list")
	}
	var sum uint64
	for _, s := range r.snapshot() {
		if s.name != name || s.kind != kindCounter {
			continue
		}
		match := true
		for i := 0; i < len(labels); i += 2 {
			if !strings.Contains(","+s.labels+",", ","+labels[i]+"="+fmt.Sprintf("%q", labels[i+1])+",") {
				match = false
				break
			}
		}
		if match {
			sum += s.counter.Value()
		}
	}
	return sum
}
