package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// span is one timed call across a layer boundary. Spans of one job share
// Job; Parent is the ID of the span that caused this one (0 = none).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Job    string  `json:"job,omitempty"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Key    string  `json:"key,omitempty"`
	Start  float64 `json:"start_ms"` // since the traced repetition began
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced repetitions pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	jobOf map[string]string // cell key -> first job that asked for it
}

func newTracer() *tracer { return &tracer{t0: time.Now(), jobOf: map[string]string{}} }

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e6
}

// record adds a finished span and returns its ID.
func (t *tracer) record(s span, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = int64(len(t.spans) + 1)
	s.Start, s.End = t.since(start), t.since(end)
	t.spans = append(t.spans, s)
	return s.ID
}

// claim notes that job asked for the cells keys, so later dispatch and
// route spans on those keys attach to it. The first job to ask keeps a key.
func (t *tracer) claim(job string, keys []string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, k := range keys {
		if _, ok := t.jobOf[k]; !ok {
			t.jobOf[k] = job
		}
	}
	t.mu.Unlock()
}

func (t *tracer) job(key string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobOf[key]
}

// parentNames says which spans can cause a span of a given name.
var parentNames = map[string][]string{
	"submit":         {"job"},
	"dispatch":       {"job"},
	"dispatch_sweep": {"job"},
	"route_execute":  {"dispatch"},
	"route_sweep":    {"dispatch_sweep"},
	"route_result":   {"dispatch", "dispatch_sweep"},
	"sim":            {"figure"},
}

// link sets every span's parent after the run: the latest-starting span of
// a parent name, on the same job, whose interval encloses the span.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := map[string][]int{}
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		var best *span
		for _, pn := range parentNames[s.Name] {
			for _, j := range byName[pn] {
				p := &t.spans[j]
				if p.Job != s.Job || p.Start > s.Start || s.End > p.End {
					continue
				}
				if best == nil || p.Start > best.Start {
					best = p
				}
			}
		}
		if best != nil {
			s.Parent = best.ID
		}
	}
}

// durations returns the lengths in milliseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// write stores the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	t.link()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observer brackets the timed part of the traced repetition: a CPU
// profile, the runtime's CPU and allocation counters, and the pipeline's
// process-wide skip counters.
type observer struct {
	tr      *tracer
	prof    bytes.Buffer
	started bool

	rt0, rt1     []metrics.Sample
	skip0, skip1 pipeline.SkipTelemetry
}

// tracer is the observer's span recorder; nil when not observing.
func (o *observer) tracer() *tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// begin starts observing. A nil observer does nothing.
func (o *observer) begin() error {
	if o == nil {
		return nil
	}
	o.rt0 = readRuntime()
	o.skip0 = pipeline.GlobalSkipTelemetry()
	if err := pprof.StartCPUProfile(&o.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	o.started = true
	return nil
}

// end stops observing; safe to call more than once.
func (o *observer) end() {
	if o == nil || !o.started {
		return
	}
	pprof.StopCPUProfile()
	o.started = false
	o.rt1 = readRuntime()
	o.skip1 = pipeline.GlobalSkipTelemetry()
}

// runtimeDelta returns the change of runtimeSamples[i] over the window.
func (o *observer) runtimeDelta(i int) float64 {
	if o.rt0 == nil || o.rt1 == nil {
		return 0
	}
	return sampleFloat(o.rt1[i]) - sampleFloat(o.rt0[i])
}

// skippedCycles is the null and burst cycles skipped during the window.
func (o *observer) skippedCycles() float64 {
	d := func(a, b uint64) float64 { return float64(b - a) }
	return d(o.skip0.SkippedCycles, o.skip1.SkippedCycles) +
		d(o.skip0.FetchBurstCycles, o.skip1.FetchBurstCycles) +
		d(o.skip0.CommitBurstCycles, o.skip1.CommitBurstCycles)
}
