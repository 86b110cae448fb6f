package main

import (
	"strings"
	"testing"

	"repro/internal/abgate"
)

// TestBenchGatesKeepTheirCases pins each gate's case set and limits, so
// a case dropped from a table or a loosened floor shows up here as well as
// in the baseline comparison.
func TestBenchGatesKeepTheirCases(t *testing.T) {
	tests := []struct {
		id     string
		cases  int
		floors map[string]float64
	}{
		{"2", 5, map[string]float64{"geomean_sims_per_sec": 0}},
		{"4", 3, map[string]float64{"geomean_speedup": 1.3}},
		{"5", 3, map[string]float64{"geomean_speedup": 1.25}},
		{"6", 8, map[string]float64{"geomean_speedup": 2.0}},
		{"8", 12, map[string]float64{"geomean_burst_speedup": 1.3, "geomean_membound_speedup": 0.8}},
	}
	for _, tt := range tests {
		g, err := benchGate(tt.id, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Cases) != tt.cases {
			t.Errorf("BENCH_%s: %d cases, want %d", tt.id, len(g.Cases), tt.cases)
		}
		for _, grp := range g.Groups {
			want, ok := tt.floors[grp.Key]
			if !ok || grp.Floor != want {
				t.Errorf("BENCH_%s: %s floor %v, want %v", tt.id, grp.Key, grp.Floor, want)
			}
			if grp.Key != "geomean_membound_speedup" && grp.Tolerance != benchTolerance {
				t.Errorf("BENCH_%s: %s tolerance %v, want %v", tt.id, grp.Key, grp.Tolerance, benchTolerance)
			}
		}
	}
	if _, err := benchGate("3", 1, 1); err == nil {
		t.Error("an unknown gate id must be refused")
	}
}

// TestBench2DroppedCaseFails: a case missing from the fresh run fails
// BENCH_2, even though every case still present is within its limits.
func TestBench2DroppedCaseFails(t *testing.T) {
	base, err := abgate.Load("../../BENCH_2.json")
	if err != nil {
		t.Fatal(err)
	}
	cur := &abgate.Report{Entries: append([]abgate.Entry(nil), base.Entries[1:]...), Geomeans: base.Geomeans}
	for i := range cur.Entries {
		cur.Entries[i].Identical = true
	}
	fails := simsGate(1, 1).Compare(base, cur)
	if len(fails) != 1 || !strings.Contains(fails[0], base.Entries[0].Name+": baseline case missing") {
		t.Fatalf("dropped %s: got %q", base.Entries[0].Name, fails)
	}
}

func TestBurstsFired(t *testing.T) {
	r := &abgate.Report{Entries: []abgate.Entry{
		{Name: "fetchbound-base", Group: "burst", B: &abgate.Side{Counters: map[string]float64{"fetch_burst_spans": 3}}},
		{Name: "commitbound-base", Group: "burst", B: &abgate.Side{Counters: map[string]float64{"commit_burst_spans": 1}}},
		{Name: "commitbound-pubs", Group: "burst", B: &abgate.Side{Counters: map[string]float64{"fetch_burst_cycles": 9}}},
		{Name: "sparse-base", Group: "membound", B: &abgate.Side{}},
	}}
	fails := burstsFired(r)
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "commitbound-pubs: no burst ever fired") {
		t.Fatalf("got %q, want one failure for commitbound-pubs", fails)
	}
}
