package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 19, ok: false},
		{n: 20, ok: true, p: 50, value: 10, beyond: 10},
		{n: 99, ok: true, p: 50, value: 50, beyond: 49},
		{n: 100, ok: true, p: 90, value: 90, beyond: 10},
		{n: 200, ok: true, p: 95, value: 190, beyond: 10},
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, beyond: 10},
	}
	for _, c := range cases {
		got := highestPercentile(seq(c.n))
		if got.OK != c.ok || got.N != c.n {
			t.Errorf("n=%d: OK=%v N=%d, want OK=%v N=%d", c.n, got.OK, got.N, c.ok, c.n)
			continue
		}
		if c.ok && (got.P != c.p || got.Value != c.value || got.Beyond != c.beyond) {
			t.Errorf("n=%d: p%g=%g with %d beyond, want p%g=%g with %d beyond",
				c.n, got.P, got.Value, got.Beyond, c.p, c.value, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		if seen[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestManifestMatchesCatalog keeps BENCHMARK.json and metrics.go in step.
func TestManifestMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range manifest.Workloads {
		wls = append(wls, w.Name)
	}
	if !reflect.DeepEqual(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, main.go has %v", wls, workloadNames)
	}
	strip := func(ms []metricSpec) []metricSpec {
		out := make([]metricSpec, len(ms))
		for i, m := range ms {
			out[i] = metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if got, want := strip(manifest.EndToEnd), strip(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end\n%v\nmetrics.go\n%v", got, want)
	}
	if got, want := strip(manifest.PerLayer), strip(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nmetrics.go\n%v", got, want)
	}
}

func TestMixSequenceIsSeeded(t *testing.T) {
	enc := func(seq []mixJob) string {
		b, err := json.Marshal(seq)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b, c := mixSequence(7), mixSequence(7), mixSequence(8)
	if enc(a) != enc(b) {
		t.Fatal("the same seed gave two different cluster-mix sequences")
	}
	if enc(a) == enc(c) {
		t.Fatal("seeds 7 and 8 gave the same cluster-mix sequence")
	}
	if len(a) < 100 {
		t.Fatalf("sequence has %d jobs; a p90 with 10 samples beyond it needs 100", len(a))
	}
	// Every seed does the same fresh work: only order and resubmissions
	// change.
	fresh := func(seq []mixJob) []string {
		var out []string
		for i, j := range seq {
			switch j.Kind {
			case "resubmit":
				if j.Of >= i || seq[j.Of].Kind == "resubmit" {
					t.Fatalf("job %d resubmits job %d, which is not an earlier fresh job", i, j.Of)
				}
			default:
				b, _ := json.Marshal(j.Spec)
				out = append(out, string(b))
			}
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(fresh(a), fresh(c)) {
		t.Fatal("seeds 7 and 8 submit different fresh jobs")
	}
	kinds := map[string]int{}
	for _, j := range a {
		kinds[j.Kind]++
	}
	if kinds["sweep"] == 0 || kinds["single"] == 0 || kinds["resubmit"] == 0 {
		t.Fatalf("job kinds %v: want sweeps, singles and resubmissions", kinds)
	}
}

// TestDigestMismatchRaisesErrorRate runs one real cell through a daemon
// and checks it against a golden digest that is deliberately wrong.
func TestDigestMismatchRaisesErrorRate(t *testing.T) {
	svc, err := service.New(service.Config{NodeID: "test", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(svc)
	spec := service.CampaignSpec{
		Machines:  []service.MachineSpec{{Machine: "pubs"}},
		Workloads: []string{"chess"},
		Warmup:    500, Measure: 2000,
	}
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	keys, err := specKeys(spec)
	if err != nil {
		t.Fatal(err)
	}

	run := func(ck *checker) *tally {
		tl := &tally{}
		checkJob(job, ck, tl, newCellSet())
		return tl
	}
	ck := &checker{golden: map[string]string{}, recorded: map[string]string{}}
	if tl := run(ck); tl.failed != 0 || tl.attempted != 1 {
		t.Fatalf("recording: %d of %d failed", tl.failed, tl.attempted)
	}
	good := ck.recorded[keys[0]]
	if good == "" {
		t.Fatalf("the daemon's cell key is not the one specKeys derives")
	}

	ck = &checker{golden: map[string]string{keys[0]: good}}
	if tl := run(ck); tl.failed != 0 {
		t.Fatalf("matching digest counted as %d failures: %v", tl.failed, tl.problems)
	}
	ck = &checker{golden: map[string]string{keys[0]: strings.Repeat("0", len(good))}}
	tl := run(ck)
	if tl.failed != 1 || tl.attempted != 1 {
		t.Fatalf("injected mismatch: %d of %d failed, want 1 of 1", tl.failed, tl.attempted)
	}
	if rate := ratio(float64(tl.failed), float64(tl.attempted)); rate != 1 {
		t.Fatalf("error_rate = %g, want 1", rate)
	}
	ck = &checker{golden: map[string]string{}}
	if tl := run(ck); tl.failed != 1 {
		t.Fatalf("a cell with no golden digest counted as %d failures, want 1", tl.failed)
	}
}

// TestSeedProfileMapsToLayers checks that every hot stack of the profiles
// recorded on the commit that introduced the benchmark is charged to a
// named layer by fold.txt.
func TestSeedProfileMapsToLayers(t *testing.T) {
	rules, err := parseFold(foldText)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("testdata/seed_hot.folded")
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := readCollapsed(string(b))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"bench": true}
	for _, l := range layerNames {
		known[l] = true
	}
	for _, s := range stacks {
		layer := rules.layerOf(s.Funcs)
		if !known[layer] {
			t.Errorf("hot stack with leaf %s is charged to %q", s.Funcs[0], layer)
		}
	}
	f := rules.foldStacks(stacks)
	if f.Layer["pipeline"] == 0 || f.Layer["emu"] == 0 || f.Stage["issue"] == 0 || f.Activity["plan"] == 0 {
		t.Errorf("seed profile fold lost a layer: %+v", f)
	}
}

func TestFoldRules(t *testing.T) {
	rules, err := parseFold(`
layer a/pipeline. pipeline
layer runtime.    runtime
pass  runtime.memmove
outer net/http.   cluster
stage a/pipeline.(*Sim).issue issue
stage a/pipeline.(*Sim).issueBurst skip
`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		stack        []string // leaf first
		layer, stage string
	}{
		{[]string{"runtime.memmove", "sort.Slice", "a/pipeline.(*Sim).issue"}, "pipeline", "issue"},
		{[]string{"runtime.mallocgc", "a/pipeline.(*Sim).issue"}, "runtime", "issue"},
		{[]string{"a/pipeline.(*Sim).issueBurst"}, "pipeline", "skip"},
		{[]string{"syscall.read", "net/http.(*conn).serve", "runtime.memmove"}, "cluster", ""},
		{[]string{"strings.Index"}, "", ""},
	}
	for _, c := range cases {
		if got := rules.layerOf(c.stack); got != c.layer {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.layer)
		}
		if got := rules.first("stage", c.stack); got != c.stage {
			t.Errorf("stage of %v = %q, want %q", c.stack, got, c.stage)
		}
	}
	for _, bad := range []string{"layer only-prefix", "pass a b", "bogus a b"} {
		if _, err := parseFold(bad); err == nil {
			t.Errorf("parseFold(%q) accepted a malformed rule", bad)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestReadProfileDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink := spinForProfile(500 * time.Millisecond)
	pprof.StopCPUProfile()
	_ = fmt.Sprint(sink)
	stacks, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range stacks {
		total += s.NS
		for _, f := range s.Funcs {
			if strings.HasSuffix(f, ".spinForProfile") {
				spin += s.NS
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Fatalf("profile: %d ns in all, %d ns under spinForProfile", total, spin)
	}
	var out bytes.Buffer
	if err := writeCollapsed(&out, hotStacks(stacks, 1)); err != nil {
		t.Fatal(err)
	}
	back, err := readCollapsed(out.String())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, s := range back {
		sum += s.NS
	}
	if sum != total {
		t.Fatalf("collapsed round trip: %d ns, want %d", sum, total)
	}
}
