// Package obs is the engine's observability layer: a stdlib-only
// metrics registry rendered in the Prometheus text exposition format,
// and a lightweight per-build tracing facility carried on the
// context.Context the engine already threads everywhere (PR 7).
//
// The instruments are lock-cheap: every Inc/Add/Observe is a handful
// of atomic operations with no mutex on the hot path. Family and
// child lookup (With) does take the registry/family mutex, so
// instrumented code holds child handles in package-level vars (or
// resolves them once per request) rather than calling With per event
// in a tight loop.
//
// The whole layer can be switched off with SetDisabled(true): every
// instrument method then returns after one atomic load, which is the
// baseline BenchmarkObsOverhead compares the instrumented build path
// against (see docs/observability.md for the acceptance ceiling).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// disabled short-circuits every instrument when set. Default off:
// metrics are collected unless a caller opts out.
var disabled atomic.Bool

// SetDisabled switches metric collection off (true) or on (false).
func SetDisabled(v bool) { disabled.Store(v) }

// DefBuckets are the default latency buckets in seconds. The engine's
// per-instruction costs sit in the microsecond-to-millisecond range,
// so the ladder starts well under a millisecond.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Counters only go up; negative deltas are a Gauge's job.
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if disabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if disabled.Load() {
		return
	}
	g.v.Add(n)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds []float64 // immutable sorted upper bounds; +Inf implied
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if disabled.Load() {
		return
	}
	// First bucket whose upper bound is >= v; past the end = +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// child is one labeled series of a family.
type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// family is one named metric with zero or more labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64

	mu       sync.Mutex
	children map[string]*child
}

// childLocked returns (creating on demand) the series for vals.
// Caller holds f.mu.
func (f *family) childLocked(vals []string) *child {
	key := strings.Join(vals, "\x1f")
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = &Histogram{
			bounds: f.buckets,
			counts: make([]atomic.Uint64, len(f.buckets)+1),
		}
	}
	f.children[key] = c
	return c
}

func (f *family) with(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.childLocked(vals)
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code uses the package
// Default registry via the package-level constructors.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry behind the package-level
// constructors and the daemon's /metrics endpoint.
var Default = NewRegistry()

var (
	nameRE  = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	labelRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
)

// register creates one family, panicking on malformed or duplicate
// registration: instruments are package-level vars, so both are
// programming errors that should fail at init, not at scrape.
func (r *Registry) register(name, help string, k kind, buckets []float64, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic("obs: metric name not snake_case: " + name)
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic("obs: label name not snake_case: " + l)
		}
	}
	if k == kindHistogram {
		if len(buckets) == 0 {
			panic("obs: histogram without buckets: " + name)
		}
		if !sort.Float64sAreSorted(buckets) {
			panic("obs: histogram buckets not sorted: " + name)
		}
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*child{},
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric registration: " + name)
	}
	r.families[name] = f
	return f
}

// NewCounter registers a label-free counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil, nil).with(nil).counter
}

// NewGauge registers a label-free gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil, nil).with(nil).gauge
}

// NewHistogram registers a label-free histogram over buckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, kindHistogram, buckets, nil).with(nil).hist
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on
// first use). Hold the result rather than calling With per event.
func (v *CounterVec) With(values ...string) *Counter { return v.f.with(values).counter }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.with(values).gauge }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).hist }

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labels)}
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labels)}
}

// NewHistogramVec registers a histogram family with the given label names.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, buckets, labels)}
}

// Package-level constructors on the Default registry.

// NewCounter registers a label-free counter on Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers a label-free gauge on Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram registers a label-free histogram on Default.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.NewHistogram(name, help, buckets)
}

// NewCounterVec registers a labeled counter family on Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labels...)
}

// NewGaugeVec registers a labeled gauge family on Default.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labels...)
}

// NewHistogramVec registers a labeled histogram family on Default.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, buckets, labels...)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered:
// families by name, children by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	f.mu.Unlock()
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].labelVals, "\x1f") < strings.Join(kids[j].labelVals, "\x1f")
	})
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range kids {
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", ""),
				strconv.FormatUint(c.counter.Value(), 10))
		case kindGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, c.labelVals, "", ""),
				strconv.FormatInt(c.gauge.Value(), 10))
		case kindHistogram:
			// Cumulative le buckets, then the implicit +Inf, _sum, _count.
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += c.hist.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.labelVals, "le", formatFloat(bound)), cum)
			}
			cum += c.hist.counts[len(f.buckets)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.labelVals, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, c.labelVals, "", ""), formatFloat(c.hist.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labels, c.labelVals, "", ""), c.hist.Count())
		}
	}
}

// labelString renders {k1="v1",...}, optionally with one extra pair
// (the histogram "le" bound), or "" when there are no labels at all.
func labelString(names, vals []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(f float64) string {
	if math.IsInf(f, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in the text
// exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
