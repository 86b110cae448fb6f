package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sampling"
	"repro/internal/workload"
)

// TestSampledJob: a sampled campaign runs through the daemon, shares one
// fast-forward pass across its machines, and its cells equal direct
// sampling of the same (machine, workload, plan).
func TestSampledJob(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "pubs+age"}},
		Workloads: []string{"parser"},
		Warmup:    2_000, Measure: 5_000,
		Windows: 2, FastForward: 20_000, ParallelWindows: 2,
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("job: %s %v", st.State, st.Errors)
	}
	if len(st.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(st.Results))
	}

	plan := sampling.Config{Windows: 2, FastForward: 20_000, Warmup: 2_000, Measure: 5_000}
	for _, cr := range st.Results {
		if cr.Windows != 2 || cr.FastForward != 20_000 {
			t.Errorf("%s: cell record missing sampling geometry: %+v", cr.Machine, cr)
		}
		cfg, err := MachineConfig(cr.Machine)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sampling.Run(cfg, workload.MustProgram("parser"), plan)
		if err != nil {
			t.Fatal(err)
		}
		if want := direct.Merged(); !reflect.DeepEqual(cr.Result, want) {
			t.Errorf("%s: daemon result diverged from direct sampling", cr.Machine)
		}
	}

	_, snaps := s.runnerStats()
	if snaps.Plans != 1 {
		t.Errorf("snapshot plans = %d, want 1 (one workload, one geometry)", snaps.Plans)
	}
	if snaps.Hits != 2 {
		t.Errorf("snapshot hits = %d, want 2 (remaining machines)", snaps.Hits)
	}
	for _, metric := range []string{"pubsd_snapshot_plans_total{node=\"local\"} 1", "pubsd_snapshot_hits_total{node=\"local\"} 2"} {
		if !strings.Contains(s.MetricsText(), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// TestSampledSpecKeying: sampled and contiguous campaigns with the same
// windows get distinct runners and distinct cell keys.
func TestSampledSpecKeying(t *testing.T) {
	def := testOptions()
	contiguous := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"chess"}}
	sampled := contiguous
	sampled.Windows = 2
	sampled.FastForward = 20_000
	if keyFor(contiguous.options(def)) == keyFor(sampled.options(def)) {
		t.Fatal("sampled and contiguous jobs share a runner key")
	}
	cells, err := sampled.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Key(contiguous.options(def)) == cells[0].Key(sampled.options(def)) {
		t.Fatal("sampled and contiguous cells share a content key")
	}
}

// TestLoadtestBurstOverlapsDuplicates: the duplicate-burst schedule must
// place identical specs at adjacent submission slots so they are in flight
// together, and the default burst must be on.
func TestLoadtestBurstOverlapsDuplicates(t *testing.T) {
	cfg := LoadtestConfig{}.normalized()
	if cfg.DuplicateBurst < 2 {
		t.Fatalf("default DuplicateBurst = %d, want >= 2", cfg.DuplicateBurst)
	}
	// With burst b, submissions i and i+1 use the same spec whenever
	// i%b < b-1 — adjacent duplicates exist for any ring length.
	b := cfg.DuplicateBurst
	ring := len(cfg.Specs)
	same := 0
	for i := 0; i+1 < cfg.Jobs; i++ {
		if (i/b)%ring == ((i+1)/b)%ring {
			same++
		}
	}
	if same == 0 {
		t.Fatal("burst schedule never submits the same spec at adjacent slots")
	}
}

// TestWindowMajorJob: a window-major sampled campaign completes with cells
// bit-identical to per-cell scheduling, pays one fast-forward pass, and
// exports the new trace metrics (resident bytes, predecode counters, and a
// populated replay-latency histogram).
func TestWindowMajorJob(t *testing.T) {
	s := testService(t, Config{Workers: 2, TraceBudgetBytes: 1 << 30})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "pubs+age"}},
		Workloads: []string{"parser"},
		Warmup:    2_000, Measure: 5_000,
		Windows: 2, FastForward: 20_000, ParallelWindows: 2,
		WindowMajor: true,
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("job: %s %v", st.State, st.Errors)
	}
	if len(st.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(st.Results))
	}

	// Same cells via per-cell scheduling on a fresh daemon.
	ref := testService(t, Config{Workers: 2})
	perCell := spec
	perCell.WindowMajor = false
	rst := waitJob(t, mustSubmit(t, ref, perCell))
	if rst.State != JobDone {
		t.Fatalf("reference job: %s %v", rst.State, rst.Errors)
	}
	for i := range st.Results {
		if !reflect.DeepEqual(st.Results[i], rst.Results[i]) {
			t.Errorf("%s: window-major cell diverged from per-cell scheduling", st.Results[i].Machine)
		}
	}

	_, snaps := s.runnerStats()
	if snaps.Plans != 1 {
		t.Errorf("snapshot plans = %d, want 1", snaps.Plans)
	}
	if snaps.ResidentBytes <= 0 || snaps.ResidentBytes > 1<<30 {
		t.Errorf("resident trace bytes = %d, want within (0, budget]", snaps.ResidentBytes)
	}
	text := s.MetricsText()
	for _, metric := range []string{
		"pubsd_predecode_misses_total{node=\"local\"} 1",
		"pubsd_predecode_evictions_total{node=\"local\"} 0",
		"pubsd_trace_budget_bytes{node=\"local\"} 1073741824",
		"pubsd_trace_resident_bytes",
		"pubsd_window_replay_latency_count",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
	if strings.Contains(text, "pubsd_window_replay_latency_count{node=\"local\"} 0") {
		t.Error("replay-latency histogram never observed a window")
	}
}

// TestWindowMajorSpecKeying: WindowMajor and LiveDecode pick distinct
// runners (their stores cache different payloads) but must NOT change cell
// content keys — results are bit-identical by construction.
func TestWindowMajorSpecKeying(t *testing.T) {
	def := testOptions()
	base := CampaignSpec{
		Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"chess"},
		Windows: 2, FastForward: 20_000,
	}
	wm := base
	wm.WindowMajor = true
	live := base
	live.LiveDecode = true
	if keyFor(base.options(def)) == keyFor(wm.options(def)) {
		t.Fatal("window-major job shares a runner with per-cell scheduling")
	}
	if keyFor(base.options(def)) == keyFor(live.options(def)) {
		t.Fatal("live-decode job shares a runner (and store) with trace mode")
	}
	cells, err := base.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []CampaignSpec{wm, live} {
		if cells[0].Key(base.options(def)) != cells[0].Key(other.options(def)) {
			t.Fatal("scheduling/decode mode leaked into the cell content key")
		}
	}
}

// TestDuplicateSweepsSimulateOnce: two identical window-major sampled jobs
// in flight on one node share every cell through the singleflight table —
// the sweep executor claims cells before it simulates — so each cell is
// simulated once, and for every cell one job reports it simulated while
// the other reports it merged or cached.
func TestDuplicateSweepsSimulateOnce(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "pubs+age"}},
		Workloads: []string{"parser", "chess"},
		Warmup:    2_000, Measure: 5_000,
		Windows: 2, FastForward: 20_000, WindowMajor: true,
	}
	cells := len(spec.Machines) * len(spec.Workloads)
	jobs := []*Job{mustSubmit(t, s, spec), mustSubmit(t, s, spec)}
	outcomes := make(map[string][]string) // cell key -> one outcome per job
	var results []string
	for _, j := range jobs {
		st := waitJob(t, j)
		if st.State != JobDone || len(st.Results) != cells {
			t.Fatalf("job %s: %s with %d results %v", st.ID, st.State, len(st.Results), st.Errors)
		}
		data, _ := json.Marshal(st.Results)
		results = append(results, string(data))
		evs, _ := j.EventsSince(0)
		for _, e := range evs {
			if e.Type == "cell" {
				outcomes[e.Key] = append(outcomes[e.Key], e.Outcome)
			}
		}
	}
	if results[0] != results[1] {
		t.Error("identical jobs returned different results")
	}
	if len(outcomes) != cells {
		t.Fatalf("%d distinct cell keys reported, want %d", len(outcomes), cells)
	}
	for key, got := range outcomes {
		sort.Strings(got)
		if len(got) != 2 || got[1] != "simulated" || (got[0] != "cached" && got[0] != "merged") {
			t.Errorf("cell %s reported %v, want one simulated and one merged or cached", key, got)
		}
	}
	if want := fmt.Sprintf("pubsd_sims_executed_total{node=\"local\"} %d\n", cells); !strings.Contains(s.MetricsText(), want) {
		t.Errorf("metrics missing %q: duplicate sweeps re-simulated cells", strings.TrimSpace(want))
	}
}
