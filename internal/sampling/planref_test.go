package sampling

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// planWindowsRewind is the rewinding planner PlanWindows replaced, kept
// verbatim as the reference its single forward pass must reproduce: per
// window it fast-forwards, records the detailed region, takes a tail
// snapshot, records the slack, and then rebuilds the placement machine
// from the tail snapshot.
func planWindowsRewind(prog *isa.Program, plan Config) ([]Window, error) {
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	detailed := plan.Warmup + plan.Measure
	var windows []Window
	for w := 0; w < plan.Windows; w++ {
		if plan.FastForward > 0 {
			if ran := m.Run(plan.FastForward); ran < plan.FastForward {
				break
			}
		}
		if m.Done() {
			break
		}
		win := Window{Index: w, StartInst: m.Seq(), Snap: m.Snapshot()}
		if plan.LiveDecode {
			windows = append(windows, win)
			if ran := m.Run(detailed); ran < detailed {
				break
			}
			continue
		}
		rec := emu.NewPredecode(int(detailed) + replaySlack)
		full := true
		for k := uint64(0); k < detailed; k++ {
			di, ok := m.Step()
			if !ok {
				full = false
				break
			}
			rec.Append(di)
		}
		win.Pre = rec
		windows = append(windows, win)
		if !full {
			break
		}
		tail := m.Snapshot()
		for k := 0; k < replaySlack; k++ {
			di, ok := m.Step()
			if !ok {
				break
			}
			rec.Append(di)
		}
		m, err = emu.NewFromSnapshot(prog, tail)
		if err != nil {
			return nil, err
		}
	}
	return windows, nil
}

// checkPlanMatchesReference plans prog both ways and requires the same
// number of windows, byte-identical wire encodings and the same resident
// footprint. It returns the plan for further checks.
func checkPlanMatchesReference(t *testing.T, prog *isa.Program, plan Config) []Window {
	t.Helper()
	got, err := PlanWindows(context.Background(), prog, plan)
	if err != nil {
		t.Fatalf("PlanWindows: %v", err)
	}
	want, err := planWindowsRewind(prog, plan)
	if err != nil {
		t.Fatalf("reference planner: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("placed %d windows, reference %d", len(got), len(want))
	}
	encGot, err := EncodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	encWant, err := EncodePlan(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encGot, encWant) {
		t.Fatal("encoded plan differs from the reference planner's")
	}
	if PlanBytes(got) != PlanBytes(want) {
		t.Fatalf("plan holds %d bytes, reference %d", PlanBytes(got), PlanBytes(want))
	}
	return got
}

// TestPlanMatchesRewindReferenceWorkloads: on real workloads, with the
// fast-forward absent, shorter than the trace slack (so one window's slack
// runs into the next windows) and longer than it, in trace and live-decode
// mode.
func TestPlanMatchesRewindReferenceWorkloads(t *testing.T) {
	for _, wl := range []string{"chess", "stencil"} {
		prog := workload.MustProgram(wl)
		for _, ff := range []uint64{0, 500, replaySlack - 1, replaySlack, 30_000} {
			for _, live := range []bool{false, true} {
				plan := Config{Windows: 4, FastForward: ff, Warmup: 300, Measure: 700, LiveDecode: live}
				t.Run(fmt.Sprintf("%s/ff=%d/live=%v", wl, ff, live), func(t *testing.T) {
					if ws := checkPlanMatchesReference(t, prog, plan); len(ws) != plan.Windows {
						t.Fatalf("placed %d windows, want %d", len(ws), plan.Windows)
					}
				})
			}
		}
	}
}

// TestPlanMatchesRewindReferenceHalts places the program's Halt in each
// part of a window's span — the fast-forward before it, its first and last
// detailed instruction, the middle of its detailed region, its trace slack
// and the slack's last instruction — and then under fast-forwards shorter
// than the slack, in trace and live-decode mode.
func TestPlanMatchesRewindReferenceHalts(t *testing.T) {
	prog := randomProgram(0xC0FFEE)
	halt := int64(emu.MustNew(prog).Run(0)) - 1 // the Halt's sequence number
	const windows = 6
	for _, tc := range []struct {
		name string
		// The Halt runs at offset at(detailed) from the start of window k;
		// placed is the number of windows the plan keeps.
		k      int64
		at     func(detailed int64) int64
		placed int
	}{
		{"fast-forward", 1, func(int64) int64 { return -1_500 }, 1},
		{"before-start", 1, func(int64) int64 { return -1 }, 1},
		{"detailed-first", 1, func(int64) int64 { return 0 }, 2},
		{"detailed", 1, func(int64) int64 { return 700 }, 2},
		{"detailed-last", 0, func(d int64) int64 { return d - 1 }, 1},
		{"slack", 0, func(d int64) int64 { return d + 900 }, 1},
		{"slack-last", 0, func(d int64) int64 { return d + replaySlack - 1 }, 1},
	} {
		// Window k starts at (k+1)·FF + k·detailed: solve for the FF that
		// puts the Halt at the chosen offset, stepping the detailed length
		// until the solution is integral (k=1 cases use offsets that do not
		// depend on the detailed length, so one step flips the parity).
		detailed := int64(1_000)
		for (halt-tc.at(detailed)-tc.k*detailed)%(tc.k+1) != 0 {
			detailed++
		}
		ff := uint64((halt - tc.at(detailed) - tc.k*detailed) / (tc.k + 1))
		for _, live := range []bool{false, true} {
			plan := Config{Windows: windows, FastForward: ff, Warmup: 250, Measure: uint64(detailed) - 250, LiveDecode: live}
			t.Run(fmt.Sprintf("%s/live=%v", tc.name, live), func(t *testing.T) {
				ws := checkPlanMatchesReference(t, prog, plan)
				if len(ws) != tc.placed {
					t.Fatalf("placed %d windows, want %d", len(ws), tc.placed)
				}
				// A Halt inside window k's span ends that window's trace.
				if last := ws[len(ws)-1]; last.Pre != nil && int64(last.Index) == tc.k && !last.Pre.Halted() {
					t.Fatal("last window's trace does not end in the Halt")
				}
			})
		}
	}

	// Fast-forwards shorter than the slack: many overlapping recorders are
	// open when the program halts.
	for _, ff := range []uint64{0, 37, 400} {
		plan := Config{Windows: 1_000, FastForward: ff, Warmup: 100, Measure: 200}
		t.Run(fmt.Sprintf("overlapping/ff=%d", ff), func(t *testing.T) {
			ws := checkPlanMatchesReference(t, prog, plan)
			if len(ws) == 0 || len(ws) == plan.Windows {
				t.Fatalf("placed %d windows, want a plan the Halt truncates", len(ws))
			}
			if !ws[len(ws)-1].Pre.Halted() {
				t.Fatal("last window's trace does not end in the Halt")
			}
		})
	}
}
