package abgate

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// below returns the largest float64 less than x: one ulp past a boundary.
func below(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }

// speedupGate mirrors BENCH_8's shape: a burst group with a floor and a
// baseline tolerance, and a membound group held to a floor only.
func speedupGate() Gate {
	return Gate{Name: "T", Groups: []Group{
		{Name: "burst", Key: "geomean_burst_speedup", Floor: 1.3, Tolerance: 0.2},
		{Name: "membound", Key: "geomean_membound_speedup", Floor: 0.8},
	}}
}

// throughputGate mirrors BENCH_2's shape: one group of B-only cases, no
// floor, a baseline tolerance and an allocation slack.
func throughputGate() Gate {
	return Gate{Name: "T", AllocSlack: 512, Groups: []Group{
		{Key: "geomean_sims_per_sec", Tolerance: 0.2},
	}}
}

// speedupReport is a fresh report with one case per group, whose scores
// are the group geomeans given.
func speedupReport(burst, membound float64) *Report {
	return &Report{
		Entries: []Entry{
			{Name: "fetchbound", Group: "burst", Speedup: burst, Identical: true},
			{Name: "sparse", Group: "membound", Speedup: membound, Identical: true},
		},
		Geomeans: map[string]float64{"geomean_burst_speedup": burst, "geomean_membound_speedup": membound},
	}
}

func throughputReport(sims float64, allocs int64) *Report {
	return &Report{
		Entries:  []Entry{{Name: "base/chess", SimsPerSec: sims, AllocsPerSim: allocs, Identical: true}},
		Geomeans: map[string]float64{"geomean_sims_per_sec": sims},
	}
}

func TestCompare(t *testing.T) {
	sg, tg := speedupGate(), throughputGate()
	base := speedupReport(2, 1)
	base.Entries = append(base.Entries, Entry{Name: "commitbound", Group: "burst", Speedup: 2})
	cur := func(burst, membound float64) *Report {
		r := speedupReport(burst, membound)
		r.Entries = append(r.Entries, Entry{Name: "commitbound", Group: "burst", Speedup: burst, Identical: true})
		return r
	}
	tbase := throughputReport(10, 100)
	noBurst := func(r *Report) []string {
		if r.Entries[0].B == nil || r.Entries[0].B.Counters["bursts"] == 0 {
			return []string{"no burst fired"}
		}
		return nil
	}
	withCheck := sg
	withCheck.Checks = []func(*Report) []string{noBurst}
	notIdentical := speedupReport(2, 1)
	notIdentical.Entries[1].Identical = false
	emptyGroup := speedupReport(2, 1)
	emptyGroup.Entries = emptyGroup.Entries[1:]
	sg.summarize(emptyGroup)

	tests := []struct {
		name      string
		g         Gate
		base, cur *Report
		want      string // substring of the only failure; "" = pass
	}{
		{"floor exact", sg, nil, speedupReport(1.3, 1), ""},
		{"floor one ulp below", sg, nil, speedupReport(below(1.3), 1), "geomean_burst_speedup 1.300 is below the 1.30 floor"},
		{"tolerance exact", sg, base, cur(2*(1-0.2), 1), ""},
		{"tolerance one ulp below", sg, base, cur(below(2*(1-0.2)), 1), "20% regression from baseline 2.000"},
		{"membound floor exact", sg, nil, speedupReport(2, 0.8), ""},
		{"membound floor one ulp below", sg, nil, speedupReport(2, below(0.8)), "geomean_membound_speedup 0.800 is below the 0.80 floor"},
		{"membound not compared with baseline", sg, speedupReport(2, 3), speedupReport(2, 1), ""},
		{"empty group", sg, nil, emptyGroup, "geomean_burst_speedup 0.000 is below"},
		{"not identical", sg, nil, notIdentical, "sparse: results differ"},
		{"missing baseline case", sg, base, speedupReport(2, 1), "commitbound: baseline case missing from the fresh run"},
		{"extra check fails", withCheck, nil, speedupReport(2, 1), "no burst fired"},
		{"allocs at slack", tg, tbase, throughputReport(10, 100+512), ""},
		{"allocs one over slack", tg, tbase, throughputReport(10, 100+513), "613 allocs/sim exceeds baseline 100 by more than 512"},
		{"sims/sec exact", tg, tbase, throughputReport(10*(1-0.2), 100), ""},
		{"sims/sec one ulp below", tg, &Report{Entries: tbase.Entries},
			throughputReport(below(10*(1-0.2)), 100), "base/chess: 8.000 sims/sec is a 20% regression"},
		{"geomean sims/sec one ulp below", tg, &Report{Geomeans: tbase.Geomeans},
			throughputReport(below(10*(1-0.2)), 100), "geomean_sims_per_sec 8.000 is a 20% regression"},
		{"throughput missing case", tg, &Report{Entries: append([]Entry{{Name: "pubs/chess", SimsPerSec: 10}}, tbase.Entries...)},
			throughputReport(10, 100), "pubs/chess: baseline case missing"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fails := tt.g.Compare(tt.base, tt.cur)
			if tt.want == "" {
				if len(fails) != 0 {
					t.Fatalf("want pass, got %q", fails)
				}
				return
			}
			if len(fails) != 1 || !strings.Contains(fails[0], tt.want) {
				t.Fatalf("want one failure containing %q, got %q", tt.want, fails)
			}
		})
	}
}

func TestSummarizeGeomeansPerGroup(t *testing.T) {
	g := speedupGate()
	r := &Report{}
	for i, s := range []float64{2, 8, 0.5, 2, 1} {
		grp := "burst"
		if i >= 2 {
			grp = "membound"
		}
		r.Entries = append(r.Entries, Entry{Name: fmt.Sprint(i), Group: grp, Speedup: s, Identical: true})
	}
	g.summarize(r)
	if got := r.Geomeans["geomean_burst_speedup"]; math.Abs(got-4) > 1e-12 {
		t.Errorf("burst geomean = %v, want 4", got)
	}
	if got := r.Geomeans["geomean_membound_speedup"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("membound geomean = %v, want 1", got)
	}
	if !r.BitIdentical {
		t.Error("BitIdentical = false with every entry identical")
	}
	r.Entries[3].Identical = false
	g.summarize(r)
	if r.BitIdentical {
		t.Error("BitIdentical = true with an entry that is not")
	}
}

// fixed returns a side whose runs report the given times in turn, logging
// each call's label to order.
func fixed(label string, order *[]string, result func(i int) any, ms ...int) func() (Outcome, error) {
	i := 0
	return func() (Outcome, error) {
		*order = append(*order, label)
		o := Outcome{Result: result(i), Elapsed: time.Duration(ms[i]) * time.Millisecond,
			Counters: map[string]float64{"run": float64(i)}}
		i++
		return o, nil
	}
}

func same(int) any { return "r" }

func TestMeasureInterleavesAndTakesMedians(t *testing.T) {
	var order []string
	c := Case{Name: "c",
		A: fixed("A", &order, same, 100, 300, 200, 500, 400),
		B: fixed("B", &order, same, 50, 40, 60, 30, 20),
	}
	e, err := measureCase(c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, ""), "ABBAABBAAB"; got != want {
		t.Errorf("run order %s, want %s", got, want)
	}
	ms := int64(time.Millisecond)
	if e.A.MinNs != 100*ms || e.A.MedianNs != 300*ms || e.A.IQRNs != 200*ms {
		t.Errorf("A = %+v, want min 100ms, median 300ms, IQR 200ms", *e.A)
	}
	if e.B.MinNs != 20*ms || e.B.MedianNs != 40*ms || e.B.IQRNs != 20*ms {
		t.Errorf("B = %+v, want min 20ms, median 40ms, IQR 20ms", *e.B)
	}
	if e.Speedup != 7.5 {
		t.Errorf("speedup = %v, want the ratio of medians 7.5", e.Speedup)
	}
	if !e.Identical {
		t.Error("identical results reported as differing")
	}
	if e.B.Counters["run"] != Reps-1 {
		t.Errorf("counters = %v, want the last repetition's", e.B.Counters)
	}
}

func TestMeasureThroughputAndIdentity(t *testing.T) {
	var order []string
	e, err := measureCase(Case{Name: "c", B: fixed("B", &order, same, 250, 250, 100, 250, 500)})
	if err != nil {
		t.Fatal(err)
	}
	if e.A != nil || e.Speedup != 0 || e.SimsPerSec != 4 {
		t.Errorf("throughput entry = %+v, want B alone at 4 sims/sec", e)
	}
	differs := func(i int) any { return i == 3 }
	e, err = measureCase(Case{Name: "c",
		A: fixed("A", &order, func(int) any { return "a" }, 1, 1, 1, 1, 1),
		B: fixed("B", &order, same, 1, 1, 1, 1, 1)})
	if err != nil || e.Identical {
		t.Fatalf("sides with different results must clear Identical: %+v, %v", e, err)
	}
	e, err = measureCase(Case{Name: "c", B: fixed("B", &order, differs, 1, 1, 1, 1, 1)})
	if err != nil || e.Identical {
		t.Fatalf("a repetition with a different result must clear Identical: %+v, %v", e, err)
	}
	boom := errors.New("boom")
	if _, err := measureCase(Case{Name: "c", B: func() (Outcome, error) { return Outcome{}, boom }}); !errors.Is(err, boom) {
		t.Fatalf("run error = %v, want %v", err, boom)
	}
}

// TestRunRemeasureStillFails: a gate that fails is measured again, and a
// second run that passes does not turn the verdict into a pass.
func TestRunRemeasureStillFails(t *testing.T) {
	calls := 0
	var order []string
	g := Gate{Name: "T",
		Cases:  []Case{{Name: "c", A: fixed("A", &order, same, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), B: fixed("B", &order, same, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)}},
		Groups: []Group{{Key: "geomean_speedup", Floor: 1.5}},
		Checks: []func(*Report) []string{func(*Report) []string {
			calls++
			if calls == 1 {
				return []string{"flaky"}
			}
			return nil
		}},
	}
	var log bytes.Buffer
	err := Run(g, "", "", &log)
	if err == nil || !strings.Contains(err.Error(), "flaky") {
		t.Fatalf("Run = %v, want the first run's failure", err)
	}
	if calls != 2 || !strings.Contains(log.String(), "re-measurement passes") {
		t.Fatalf("want one re-measurement that passes, got %d checks, log:\n%s", calls, log.String())
	}
}

func TestReportRoundTrip(t *testing.T) {
	var order []string
	g := Gate{Name: "T",
		Cases:  []Case{{Name: "c", A: fixed("A", &order, same, 3, 3, 3, 3, 3), B: fixed("B", &order, same, 2, 2, 2, 2, 2)}},
		Groups: []Group{{Key: "geomean_speedup"}},
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := Run(g, path, "", &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Geomeans["geomean_speedup"]-1.5) > 1e-12 || r.Entries[0].A.MedianNs != 3e6 || r.Schema != Schema || !r.BitIdentical {
		t.Fatalf("round trip lost fields: %+v", r)
	}
}

// TestLoadCommittedBaselines: the baselines written before this package
// are read as they are, with the geomeans and case names each gate
// compares.
func TestLoadCommittedBaselines(t *testing.T) {
	tests := []struct {
		file  string
		keys  []string
		cases int
	}{
		{"BENCH_2.json", []string{"geomean_sims_per_sec"}, 5},
		{"BENCH_4.json", []string{"geomean_speedup"}, 3},
		{"BENCH_5.json", []string{"geomean_speedup"}, 3},
		{"BENCH_6.json", []string{"geomean_speedup"}, 8},
		{"BENCH_7.json", []string{"geomean_speedup"}, 2},
		{"BENCH_8.json", []string{"geomean_burst_speedup", "geomean_membound_speedup"}, 12},
		{"BENCH_9.json", []string{"geomean_speedup"}, 2},
	}
	for _, tt := range tests {
		r, err := Load(filepath.Join("..", "..", tt.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tt.keys {
			if r.Geomeans[k] <= 0 {
				t.Errorf("%s: %s = %v", tt.file, k, r.Geomeans[k])
			}
		}
		if len(r.Entries) != tt.cases || r.Entries[0].Name == "" {
			t.Errorf("%s: %d cases (first %q), want %d", tt.file, len(r.Entries), r.Entries[0].Name, tt.cases)
		}
	}
	r, _ := Load(filepath.Join("..", "..", "BENCH_2.json"))
	if e := r.Entries[0]; e.SimsPerSec <= 0 || e.AllocsPerSim <= 0 {
		t.Errorf("BENCH_2 entry lost its gated fields: %+v", e)
	}
}
