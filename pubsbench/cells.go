package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/stats"
)

// golden.json maps the content key of every cell the workloads can produce
// to the SHA-256 of its CellResult as JSON, recorded with -record on the
// commit that introduced the benchmark. A cell whose digest differs, or
// whose key is missing, counts as a failed operation.
//
//go:embed golden.json
var goldenJSON []byte

// checker verifies cell results against the golden digests, or, when
// recording, collects them.
type checker struct {
	golden map[string]string

	mu       sync.Mutex
	recorded map[string]string // non-nil when recording
}

func newChecker(record bool) (*checker, error) {
	c := &checker{golden: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if record {
		c.recorded = map[string]string{}
	}
	return c, nil
}

// digest is the hex SHA-256 of a cell result's JSON encoding.
func digest(res service.CellResult) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// check reports whether res matches its golden digest. While recording
// every result is accepted and remembered.
func (c *checker) check(res service.CellResult) error {
	d, err := digest(res)
	if err != nil {
		return err
	}
	if c.recorded != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if prev, ok := c.recorded[res.Key]; ok && prev != d {
			return fmt.Errorf("cell %s/%s: two different results in one run", res.Machine, res.Workload)
		}
		c.recorded[res.Key] = d
		return nil
	}
	want, ok := c.golden[res.Key]
	switch {
	case !ok:
		return fmt.Errorf("cell %s/%s (key %.12s): no golden digest", res.Machine, res.Workload, res.Key)
	case want != d:
		return fmt.Errorf("cell %s/%s (key %.12s): result differs from the golden digest", res.Machine, res.Workload, res.Key)
	}
	return nil
}

// save merges the recorded digests into the golden file at path.
func (c *checker) save(path string) error {
	all := map[string]string{}
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	c.mu.Lock()
	for k, v := range c.recorded {
		all[k] = v
	}
	c.mu.Unlock()
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// tally counts the operations of a repetition and keeps the first few
// failures for the log.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string
}

func (t *tally) add(attempted int) {
	t.mu.Lock()
	t.attempted += attempted
	t.mu.Unlock()
}

func (t *tally) fail(n int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed += n
	if len(t.problems) < 8 {
		t.problems = append(t.problems, err.Error())
	}
}

// cellSet gathers the distinct cells a repetition produced.
type cellSet struct {
	mu    sync.Mutex
	byKey map[string]service.CellResult
}

func newCellSet() *cellSet { return &cellSet{byKey: map[string]service.CellResult{}} }

func (s *cellSet) add(res service.CellResult) {
	s.mu.Lock()
	s.byKey[res.Key] = res
	s.mu.Unlock()
}

// list returns the cells in key order.
func (s *cellSet) list() []service.CellResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]service.CellResult, 0, len(s.byKey))
	for _, r := range s.byKey {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// windowsOf is the number of detailed windows a cell simulated.
func windowsOf(c service.CellResult) uint64 {
	if c.Windows > 0 {
		return uint64(c.Windows)
	}
	return 1
}

// detailedInsts is how many instructions the cells simulated in detail,
// warm-up included.
func detailedInsts(cells []service.CellResult) float64 {
	var n float64
	for _, c := range cells {
		n += float64((c.Warmup + c.Measure) * windowsOf(c))
	}
	return n
}

// simulatedCycles estimates the cycles the cells simulated, warm-up
// included: each cell's measured cycles scaled by (warm-up + measure) /
// measure. It is deterministic, so it compares exactly between commits.
func simulatedCycles(cells []service.CellResult) float64 {
	var n float64
	for _, c := range cells {
		if c.Measure == 0 {
			continue
		}
		n += float64(c.Result.Cycles) * float64(c.Warmup+c.Measure) / float64(c.Measure)
	}
	return n
}

var (
	baseName = pipeline.BaseConfig().Name
	pubsName = pipeline.PUBSConfig().Name
)

// modelled computes the simulated statistics of a set of cells: the
// counters PUBS is meant to move, and the D-BP geometric-mean speedup of
// the PUBS machine over the base machine. Cells pair up by workload and
// window geometry; a pair is D-BP when its base run's branch MPKI exceeds
// the paper's threshold, exactly as experiments.Classify decides it.
func modelled(cells []service.CellResult) map[string]float64 {
	var sum, pubsSum pipeline.Result
	type geom struct {
		wl      string
		w, m, f uint64
		n       int
	}
	base := map[geom]pipeline.Result{}
	pubs := map[geom]pipeline.Result{}
	for _, c := range cells {
		r := c.Result
		sum.Sim.Add(r.Sim)
		if r.DecodedBranches > 0 {
			pubsSum.Sim.Add(r.Sim)
		}
		g := geom{c.Workload, c.Warmup, c.Measure, c.FastForward, c.Windows}
		switch c.Machine {
		case baseName:
			base[g] = r
		case pubsName:
			pubs[g] = r
		}
	}
	// Pairs in a fixed order, so the floating-point sums repeat exactly.
	geoms := make([]geom, 0, len(base))
	for g := range base {
		geoms = append(geoms, g)
	}
	sort.Slice(geoms, func(i, j int) bool { return fmt.Sprint(geoms[i]) < fmt.Sprint(geoms[j]) })
	var ratios []float64
	var bPen, bMis, pPen, pMis float64
	for _, g := range geoms {
		b := base[g]
		p, ok := pubs[g]
		if !ok || b.BranchMPKI() <= experiments.DBPThresholdMPKI || b.IPC() <= 0 || p.IPC() <= 0 {
			continue
		}
		ratios = append(ratios, p.IPC()/b.IPC())
		bPen += float64(b.MisspecPenaltyCycles)
		bMis += float64(b.Mispredicts)
		pPen += float64(p.MisspecPenaltyCycles)
		pMis += float64(p.Mispredicts)
	}
	m := map[string]float64{
		"bpred.mispredict_pki":   1000 * ratio(float64(sum.Mispredicts), float64(sum.Committed)),
		"cache.llc_mpki":         1000 * ratio(float64(sum.LLCMisses), float64(sum.Committed)),
		"iq.priority_stall_pki":  1000 * ratio(float64(sum.DispatchStallPriority), float64(sum.Committed)),
		"core.unconf_slice_frac": ratio(float64(pubsSum.UnconfSliceInsts), float64(pubsSum.Committed)),
		"dbp_pairs":              float64(len(ratios)),
	}
	if len(ratios) > 0 {
		m["dbp_gm_speedup_pct"] = (stats.Geomean(ratios) - 1) * 100
		if bp := ratio(bPen, bMis); bp > 0 {
			m["pipeline.misspec_penalty_reduction_pct"] = (1 - ratio(pPen, pMis)/bp) * 100
		}
	}
	return m
}
