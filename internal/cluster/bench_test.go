package cluster

import (
	"context"
	"strings"
	"testing"

	"repro/internal/abgate"
)

func TestOnePassPerWorkload(t *testing.T) {
	want := float64(len(samplingBenchWorkloads))
	r := &abgate.Report{Entries: []abgate.Entry{
		{Name: "plan-heavy", B: &abgate.Side{Counters: map[string]float64{"functional_plans": want}}},
		{Name: "balanced", B: &abgate.Side{Counters: map[string]float64{"functional_plans": want + 1}}},
	}}
	fails := onePassPerWorkload(r)
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "balanced: fleet paid 5 functional passes") {
		t.Fatalf("got %q, want one failure for balanced", fails)
	}
}

// TestBenchGatesKeepTheirLimits pins BENCH_7 and BENCH_9's case sets and
// limits.
func TestBenchGatesKeepTheirLimits(t *testing.T) {
	for _, tt := range []struct {
		g     abgate.Gate
		floor float64
	}{{BenchGate(context.Background()), 1.8}, {SamplingBenchGate(context.Background()), 1.5}} {
		if len(tt.g.Cases) != 2 || len(tt.g.Groups) != 1 {
			t.Fatalf("%s: %d cases, %d groups", tt.g.Name, len(tt.g.Cases), len(tt.g.Groups))
		}
		if grp := tt.g.Groups[0]; grp.Key != "geomean_speedup" || grp.Floor != tt.floor || grp.Tolerance != 0.20 {
			t.Errorf("%s: limits %+v", tt.g.Name, grp)
		}
	}
}
