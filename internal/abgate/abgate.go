// Package abgate runs the repository's A/B benchmark gates.
//
// A gate is a table of cases. Each case times a reference side (A)
// against the side under test (B), or B alone for a throughput case. The
// gate scores every case, takes the geomean of the scores per group,
// holds each group's geomean above a hard floor and within a tolerance of
// the committed baseline's, and runs any extra checks the gate names.
//
// Each side of a case runs Reps times. The sides are interleaved and the
// side that runs first alternates, so a host that slows down mid-run slows
// both sides alike. A speedup case scores A's median time over B's; a
// throughput case scores B's runs per second at its median time. The
// report keeps each side's min, median and interquartile range, so the
// spread behind a ratio is visible. Every run of a case, on either side,
// must return a result reflect.DeepEqual to the first one's.
package abgate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// Reps is the number of timed runs of each side of every case.
const Reps = 5

// Schema names the report format this package writes.
const Schema = "abgate/1"

// Outcome is what one run of a case side returns.
type Outcome struct {
	// Result is compared with reflect.DeepEqual against every other run
	// of the case, on both sides.
	Result any
	// Counters attribute the run (telemetry, planning passes); the report
	// keeps the last repetition's.
	Counters map[string]float64
	// Elapsed, when positive, is the time that counts for this run in
	// place of the harness's own timing of the whole call: for example a
	// load test's serving time without the fleet's boot and shutdown.
	Elapsed time.Duration
}

// Case is one row of a gate's table.
type Case struct {
	Name  string
	Group string // must name one of the gate's groups
	// A is the reference side; nil makes a throughput case timed on B
	// alone.
	A, B func() (Outcome, error)
}

// Group holds the limits of one group of cases.
type Group struct {
	Name string
	// Key is the report field holding the group's geomean score, for
	// example "geomean_speedup".
	Key string
	// Floor is the lowest passing geomean (0: no floor).
	Floor float64
	// Tolerance is the largest passing fractional drop below the
	// baseline: of the group's geomean and, for throughput cases, of each
	// case's runs per second (0: the group is not compared with the
	// baseline).
	Tolerance float64
}

// Gate is a benchmark gate: a case table plus the limits it must hold.
type Gate struct {
	Name   string
	Cases  []Case
	Groups []Group
	// AllocSlack is how many allocations per run a throughput case may
	// add over its baseline entry before the gate fails.
	AllocSlack int64
	// Checks are extra conditions on the fresh report; each returns its
	// failures.
	Checks []func(*Report) []string
}

// Side is one side's measurements over Reps runs.
type Side struct {
	MinNs    int64 `json:"min_ns"`
	MedianNs int64 `json:"median_ns"`
	IQRNs    int64 `json:"iqr_ns"`
	// Allocs and Bytes are the median heap allocations per run.
	Allocs   int64              `json:"allocs"`
	Bytes    int64              `json:"bytes"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Entry is one case's row of the report.
type Entry struct {
	Name  string `json:"name"`
	Group string `json:"group,omitempty"`
	A     *Side  `json:"a,omitempty"`
	B     *Side  `json:"b,omitempty"`
	// Speedup is A's median time over B's (speedup cases).
	Speedup float64 `json:"speedup,omitempty"`
	// SimsPerSec and AllocsPerSim are B's runs per second at its median
	// time and its median allocations per run (throughput cases).
	SimsPerSec   float64 `json:"sims_per_sec,omitempty"`
	AllocsPerSim int64   `json:"allocs_per_sim,omitempty"`
	// Identical reports that every run returned the same result.
	Identical bool `json:"identical"`
}

// score is the value the entry's group geomean is taken over.
func (e Entry) score() float64 {
	if e.Speedup > 0 {
		return e.Speedup
	}
	return e.SimsPerSec
}

// Report is a gate's measurement. Geomeans are written as top-level
// fields named by each group's Key, which is where the baselines written
// before this package keep them too.
type Report struct {
	Schema       string             `json:"schema"`
	Gate         string             `json:"gate"`
	GoOS         string             `json:"goos"`
	GoArch       string             `json:"goarch"`
	GoMaxProcs   int                `json:"gomaxprocs"`
	Repetitions  int                `json:"repetitions"`
	Entries      []Entry            `json:"entries"`
	BitIdentical bool               `json:"bit_identical"`
	Geomeans     map[string]float64 `json:"-"`
}

// MarshalJSON writes the geomeans after the other fields.
func (r Report) MarshalJSON() ([]byte, error) {
	type plain Report
	b, err := json.Marshal(plain(r))
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object
	keys := make([]string, 0, len(r.Geomeans))
	for k := range r.Geomeans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(r.Geomeans[k])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		b = append(b, ',')
		b = append(b, kb...)
		b = append(b, ':')
		b = append(b, vb...)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads reports of this package and the baselines written
// before it: every top-level "geomean_*" number is a geomean, and the
// cluster baselines list their cases under "scenarios".
func (r *Report) UnmarshalJSON(data []byte) error {
	type plain Report
	if err := json.Unmarshal(data, (*plain)(r)); err != nil {
		return err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	r.Geomeans = make(map[string]float64)
	for k, v := range fields {
		if !strings.HasPrefix(k, "geomean_") {
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		r.Geomeans[k] = f
	}
	if raw, ok := fields["scenarios"]; ok && len(r.Entries) == 0 {
		if err := json.Unmarshal(raw, &r.Entries); err != nil {
			return fmt.Errorf("scenarios: %w", err)
		}
	}
	return nil
}

// Load reads a report or a baseline from path.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return &r, nil
}

// write writes the report to path as indented JSON.
func (r *Report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Run measures g, writes the report to out when out is set, and gates it,
// against the baseline report at basePath when that is set. A gate that
// fails is measured once more and the second verdict is logged too, so
// the log tells a regression that reproduces from machine noise; the gate
// fails either way, so a flake stays visible.
func Run(g Gate, out, basePath string, log io.Writer) error {
	var base *Report
	if basePath != "" {
		var err error
		if base, err = Load(basePath); err != nil {
			return err
		}
	}
	cur, err := g.measure(log)
	if err != nil {
		return err
	}
	if out != "" {
		if err := cur.write(out); err != nil {
			return err
		}
		fmt.Fprintf(log, "%s: report written to %s\n", g.Name, out)
	}
	fails := g.Compare(base, cur)
	if len(fails) == 0 {
		fmt.Fprintf(log, "%s: pass: %s\n", g.Name, g.summary(base, cur))
		return nil
	}
	for _, f := range fails {
		fmt.Fprintf(log, "%s: FAIL: %s\n", g.Name, f)
	}
	fmt.Fprintf(log, "%s: re-measuring once to tell a reproducible regression from machine noise\n", g.Name)
	again, err := g.measure(log)
	if err != nil {
		return fmt.Errorf("%s: re-measurement: %w", g.Name, err)
	}
	if fails2 := g.Compare(base, again); len(fails2) == 0 {
		fmt.Fprintf(log, "%s: re-measurement passes (%s); still failing so the flake stays visible\n",
			g.Name, g.summary(base, again))
	} else {
		for _, f := range fails2 {
			fmt.Fprintf(log, "%s: re-measurement confirms: %s\n", g.Name, f)
		}
	}
	return fmt.Errorf("%s: %d gate failure(s), first: %s", g.Name, len(fails), fails[0])
}

// Compare returns every way cur fails the gate; base may be nil.
func (g Gate) Compare(base, cur *Report) []string {
	var fails []string
	for _, e := range cur.Entries {
		if !e.Identical {
			fails = append(fails, fmt.Sprintf("%s: results differ between runs (A vs B or across repetitions)", e.Name))
		}
	}
	for _, grp := range g.Groups {
		gm := cur.Geomeans[grp.Key]
		if gm < grp.Floor {
			fails = append(fails, fmt.Sprintf("%s %.3f is below the %.2f floor", grp.Key, gm, grp.Floor))
		}
		if base == nil || grp.Tolerance == 0 {
			continue
		}
		if b := base.Geomeans[grp.Key]; b > 0 && gm < b*(1-grp.Tolerance) {
			fails = append(fails, fmt.Sprintf("%s %.3f is a %.0f%% regression from baseline %.3f",
				grp.Key, gm, (1-gm/b)*100, b))
		}
	}
	if base != nil {
		fails = append(fails, g.compareEntries(base, cur)...)
	}
	for _, check := range g.Checks {
		fails = append(fails, check(cur)...)
	}
	return fails
}

// compareEntries fails every baseline case missing from cur, and holds
// throughput cases to their baseline runs per second and allocations.
func (g Gate) compareEntries(base, cur *Report) []string {
	var fails []string
	tolerance := make(map[string]float64, len(g.Groups))
	for _, grp := range g.Groups {
		tolerance[grp.Name] = grp.Tolerance
	}
	for _, b := range base.Entries {
		i := slices.IndexFunc(cur.Entries, func(e Entry) bool { return e.Name == b.Name })
		if i < 0 {
			fails = append(fails, fmt.Sprintf("%s: baseline case missing from the fresh run", b.Name))
			continue
		}
		e := cur.Entries[i]
		if b.SimsPerSec <= 0 {
			continue
		}
		if tol := tolerance[e.Group]; tol > 0 && e.SimsPerSec < b.SimsPerSec*(1-tol) {
			fails = append(fails, fmt.Sprintf("%s: %.3f sims/sec is a %.0f%% regression from baseline %.3f",
				e.Name, e.SimsPerSec, (1-e.SimsPerSec/b.SimsPerSec)*100, b.SimsPerSec))
		}
		if e.AllocsPerSim > b.AllocsPerSim+g.AllocSlack {
			fails = append(fails, fmt.Sprintf("%s: %d allocs/sim exceeds baseline %d by more than %d",
				e.Name, e.AllocsPerSim, b.AllocsPerSim, g.AllocSlack))
		}
	}
	return fails
}

// summary renders each group's geomean against its limits.
func (g Gate) summary(base, cur *Report) string {
	parts := make([]string, 0, len(g.Groups))
	for _, grp := range g.Groups {
		s := fmt.Sprintf("%s %.3f (floor %.2f", grp.Key, cur.Geomeans[grp.Key], grp.Floor)
		if base != nil && grp.Tolerance > 0 {
			s += fmt.Sprintf(", baseline %.3f", base.Geomeans[grp.Key])
		}
		parts = append(parts, s+")")
	}
	return strings.Join(parts, ", ")
}

func (g Gate) measure(log io.Writer) (*Report, error) {
	rep := &Report{
		Schema: Schema, Gate: g.Name,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH, GoMaxProcs: runtime.GOMAXPROCS(0),
		Repetitions: Reps,
	}
	for _, c := range g.Cases {
		e, err := measureCase(c)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", g.Name, c.Name, err)
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Fprintf(log, "%s %s\n", g.Name, e)
	}
	g.summarize(rep)
	return rep, nil
}

// summarize fills the report's per-group geomeans and BitIdentical from
// its entries. A group with no entries has geomean 0.
func (g Gate) summarize(rep *Report) {
	rep.Geomeans = make(map[string]float64, len(g.Groups))
	for _, grp := range g.Groups {
		var logSum float64
		n := 0
		for _, e := range rep.Entries {
			if e.Group == grp.Name {
				logSum += math.Log(e.score())
				n++
			}
		}
		gm := 0.0
		if n > 0 {
			gm = math.Exp(logSum / float64(n))
		}
		rep.Geomeans[grp.Key] = gm
	}
	rep.BitIdentical = true
	for _, e := range rep.Entries {
		rep.BitIdentical = rep.BitIdentical && e.Identical
	}
}

// sample is one timed run.
type sample struct {
	ns, allocs, bytes int64
}

func measureCase(c Case) (Entry, error) {
	runs := []func() (Outcome, error){c.B}
	if c.A != nil {
		runs = []func() (Outcome, error){c.A, c.B}
	}
	samples := make([][]sample, len(runs))
	counters := make([]map[string]float64, len(runs))
	e := Entry{Name: c.Name, Group: c.Group, Identical: true}
	var first any
	for rep := 0; rep < Reps; rep++ {
		for k := range runs {
			side := (k + rep) % len(runs)
			o, s, err := timeRun(runs[side])
			if err != nil {
				return Entry{}, err
			}
			if rep == 0 && k == 0 {
				first = o.Result
			} else if !reflect.DeepEqual(first, o.Result) {
				e.Identical = false
			}
			samples[side] = append(samples[side], s)
			counters[side] = o.Counters
		}
	}
	b := summarizeSide(samples[len(runs)-1], counters[len(runs)-1])
	e.B = &b
	if c.A != nil {
		a := summarizeSide(samples[0], counters[0])
		e.A = &a
		e.Speedup = float64(a.MedianNs) / float64(b.MedianNs)
	} else {
		e.SimsPerSec = 1e9 / float64(b.MedianNs)
		e.AllocsPerSim = b.Allocs
	}
	return e, nil
}

// timeRun runs one side from a collected heap, recording its time and
// heap allocations.
func timeRun(run func() (Outcome, error)) (Outcome, sample, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	o, err := run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return o, sample{}, err
	}
	if o.Elapsed > 0 {
		elapsed = o.Elapsed
	}
	return o, sample{
		ns:     max(elapsed.Nanoseconds(), 1),
		allocs: int64(m1.Mallocs - m0.Mallocs),
		bytes:  int64(m1.TotalAlloc - m0.TotalAlloc),
	}, nil
}

func summarizeSide(ss []sample, counters map[string]float64) Side {
	col := func(f func(sample) int64) []int64 {
		v := make([]int64, len(ss))
		for i, s := range ss {
			v[i] = f(s)
		}
		slices.Sort(v)
		return v
	}
	ns := col(func(s sample) int64 { return s.ns })
	return Side{
		MinNs:    ns[0],
		MedianNs: quantile(ns, 0.5),
		IQRNs:    quantile(ns, 0.75) - quantile(ns, 0.25),
		Allocs:   quantile(col(func(s sample) int64 { return s.allocs }), 0.5),
		Bytes:    quantile(col(func(s sample) int64 { return s.bytes }), 0.5),
		Counters: counters,
	}
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []int64, p float64) int64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + int64(math.Round(frac*float64(sorted[lo+1]-sorted[lo])))
}

// String renders the entry as one log line.
func (e Entry) String() string {
	side := func(label string, s *Side) string {
		return fmt.Sprintf("%s median %.1f ms (min %.1f, IQR %.1f)", label,
			float64(s.MedianNs)/1e6, float64(s.MinNs)/1e6, float64(s.IQRNs)/1e6)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", e.Name)
	if e.A != nil {
		fmt.Fprintf(&b, " %s  %s  speedup %.2fx", side("A", e.A), side("B", e.B), e.Speedup)
	} else {
		fmt.Fprintf(&b, " %s  %.3f sims/sec  %d allocs/sim", side("B", e.B), e.SimsPerSec, e.AllocsPerSim)
	}
	fmt.Fprintf(&b, "  identical=%v", e.Identical)
	return b.String()
}
