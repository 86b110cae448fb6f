// Command pubsbench is the repository's benchmark: it times the PUBS
// simulator end to end on three workloads and, in a separate traced run,
// splits that time by layer. Run it from the repository root through
// run.sh, which builds it:
//
//	bash pubsbench/run.sh --workload paper-figures --seed 1 --seconds 30 --trace 0
//	bash pubsbench/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end set, with --trace 1 the per-layer set (see metrics.go and
// METRICS.md).
//
// Every repetition runs in a child process of its own, so peak RSS and the
// pipeline's process-wide skip counters belong to one workload alone and
// never accumulate. Children are started until --seconds of measuring is
// spent; time, job latency and peak RSS are reported as medians. Set-up
// time runs from a child's start until it is ready to submit its first
// job: program builds and the Runner, daemon or fleet boot.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// workloadNames lists the benchmark's workloads in the order "all" runs
// them.
var workloadNames = []string{"paper-figures", "sampled-sweep", "cluster-mix"}

// workloadRun is one workload inside a child process.
type workloadRun interface {
	// setup boots what the first repetition submits to.
	setup() error
	// rep runs one timed repetition on a freshly booted system (the first
	// one uses what setup booted), checks its outputs and tears it down.
	// A non-nil obs observes the timed part.
	rep(obs *observer) (repResult, error)
	close()
}

// env is what every workloadRun shares.
type env struct {
	procs int
	seed  int64
	check *checker
}

func newWorkloadRun(name string, e *env) (workloadRun, error) {
	switch name {
	case "paper-figures":
		return &paperFigures{env: e}, nil
	case "sampled-sweep":
		return &sampledSweep{env: e}, nil
	case "cluster-mix":
		return &clusterMix{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
}

// repResult is what one repetition measured.
type repResult struct {
	Wall        float64   // seconds, set-up excluded
	JobMS       []float64 // per-job latency
	QueueWaitMS []float64 // per-job StartedAt - SubmittedAt
	Attempted   int
	Failed      int
	Problems    []string
	Cells       []service.CellResult // distinct cells, key order
	Modelled    map[string]float64
	Counters    map[string]float64 // the modules' exported counters
	PlanInsts   float64            // functional instructions one planning pass emulates
}

func (r *repResult) finish(t *tally, set *cellSet) {
	r.Attempted, r.Failed, r.Problems = t.attempted, t.failed, t.problems
	r.Cells = set.list()
	r.Modelled = modelled(r.Cells)
}

// report is r as a child sends it to its parent.
func (r repResult) report(wl string) *childReport {
	c := &childReport{
		Walls:     []float64{r.Wall},
		JobMS:     r.JobMS,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Problems:  r.Problems,
		DBPGM:     r.Modelled["dbp_gm_speedup_pct"],
		DBPPairs:  r.Modelled["dbp_pairs"],
	}
	if wl == "cluster-mix" {
		c.Fleet = []fleetRep{{
			PlanPasses: r.Counters["workers.pubsd_snapshot_plans_total"],
			PlanKeys:   r.Counters["cluster.plan_keys"],
			Sims:       r.Counters["pubsd_sims_executed_total"],
			Cells:      len(r.Cells),
		}}
	}
	return c
}

// childReport is what a measuring child sends its parent.
type childReport struct {
	Walls     []float64          `json:"walls"`
	JobMS     []float64          `json:"job_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	DBPGM     float64            `json:"dbp_gm"`
	DBPPairs  float64            `json:"dbp_pairs"`
	Fleet     []fleetRep         `json:"fleet,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// merge adds another child's report to r. The modelled figures are the
// same in every child; the last one is kept.
func (r *childReport) merge(o *childReport) {
	r.Walls = append(r.Walls, o.Walls...)
	r.JobMS = append(r.JobMS, o.JobMS...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, p := range o.Problems {
		if len(r.Problems) < 8 {
			r.Problems = append(r.Problems, p)
		}
	}
	r.DBPGM, r.DBPPairs = o.DBPGM, o.DBPPairs
	r.Fleet = append(r.Fleet, o.Fleet...)
	r.Layers, r.Notes = o.Layers, o.Notes
}

// fleetRep is cluster-mix's planning and redundancy record of one
// repetition, reported raw.
type fleetRep struct {
	PlanPasses float64 `json:"plan_passes"`
	PlanKeys   float64 `json:"plan_keys"`
	Sims       float64 `json:"sims"`
	Cells      int     `json:"cells"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measuring time per run, seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end")
		out     = flag.String("out", ".bench_build", "directory for traces and profiles")
		record  = flag.String("record", "", "write the cells' digests into this golden file instead of checking them")
		child   = flag.String("child", "", "internal: run as a child (setup or run)")
		rep     = flag.Int("rep", 0, "internal: the child's repetition number")
	)
	flag.Parse()
	if *wl == "" || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *child != "" {
		err = childMain(*child, *wl, *seed, *rep, *trace == 1, *out, *record)
	} else {
		err = parentMain(*wl, *seed, *seconds, *trace == 1, *out, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsbench:", err)
		os.Exit(1)
	}
}

// ---------------------------------------------------------------- child

// repSeed is the input seed of repetition rep of a run with seed seed.
// Each repetition draws its own job order, so a run's medians average over
// several orders instead of resting on one.
func repSeed(seed int64, rep int) int64 { return seed*7919 + int64(rep) }

// childMain sets the workload up and tells the parent it is ready; in run
// mode it then measures one repetition, or in a traced run a traced
// repetition between two untraced ones.
func childMain(mode, wl string, seed int64, rep int, traced bool, out, record string) error {
	ck, err := newChecker(record != "")
	if err != nil {
		return err
	}
	e := &env{procs: runtime.GOMAXPROCS(0), seed: repSeed(seed, rep), check: ck}
	s, err := newWorkloadRun(wl, e)
	if err != nil {
		return err
	}
	// Set-up: build every workload program, then boot the system. The
	// collection after each build keeps one program's construction garbage
	// from piling onto the next, so peak RSS does not hinge on when the
	// collector happened to run.
	for _, n := range workload.Names() {
		if _, err := workload.Program(n); err != nil {
			return err
		}
		runtime.GC()
	}
	if err := s.setup(); err != nil {
		return fmt.Errorf("%s set-up: %w", wl, err)
	}
	defer s.close()
	fmt.Println("READY")
	if mode == "setup" {
		return nil
	}

	first, err := s.rep(nil)
	if err != nil {
		return err
	}
	report := &childReport{}
	report.merge(first.report(wl))
	if traced {
		// The traced repetition sits between two untraced ones, so its
		// overhead is measured against both a cold and a warm process.
		obs := &observer{tr: newTracer()}
		tr, err := s.rep(obs)
		if err != nil {
			return err
		}
		last, err := s.rep(nil)
		if err != nil {
			return err
		}
		report.merge(tr.report(wl))
		report.merge(last.report(wl))
		untraced := (first.Wall + last.Wall) / 2
		if report.Layers, report.Notes, err = traceReport(wl, seed, out, untraced, tr, obs); err != nil {
			return err
		}
	}
	if record != "" {
		if err := ck.save(record); err != nil {
			return err
		}
	}
	b, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT %s\n", b)
	return nil
}

// --------------------------------------------------------------- parent

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func parentMain(wl string, seed int64, seconds int, traced bool, out, record string) error {
	names := []string{wl}
	if wl == "all" {
		names = workloadNames
	} else if _, err := newWorkloadRun(wl, &env{}); err != nil {
		return err
	}
	total := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		s, err := runWorkload(name, seed, seconds, traced, out, record)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if len(names) == 1 {
			total = s
			break
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// childRun is one finished child process.
type childRun struct {
	setup  time.Duration // start until READY
	report *childReport
	rssMB  float64
}

// spawn runs the benchmark binary as a child for repetition rep and waits
// for it.
func spawn(ctx context.Context, mode, wl string, seed int64, rep int, traced bool, out, record string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-child", mode, "-workload", wl, "-seed", fmt.Sprint(seed), "-rep", fmt.Sprint(rep), "-trace", tr, "-out", out}
	if record != "" {
		args = append(args, "-record", record)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// A child must not outlive its parent, however the parent ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var run childRun
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "READY":
			run.setup = time.Since(t0)
		case strings.HasPrefix(line, "RESULT "):
			run.report = &childReport{}
			if err := json.Unmarshal([]byte(line[len("RESULT "):]), run.report); err != nil {
				run.report = nil
			}
		default:
			fmt.Fprintln(os.Stderr, line)
		}
	}
	_, _ = io.Copy(io.Discard, stdout) // drain after a scanner error so Wait cannot block
	werr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	if werr != nil {
		return run, fmt.Errorf("%s child: %w", mode, werr)
	}
	if run.setup == 0 {
		return run, errors.New("child never became ready")
	}
	if mode == "run" && run.report == nil {
		return run, errors.New("child sent no result")
	}
	return run, nil
}

// minSetups is the least number of set-up samples setup_s is the median of.
const minSetups = 5

// runWorkload measures one workload. Each repetition runs in a child
// process of its own, and children are started until the measuring time
// is spent. Set-up-only children top the set-up samples up to minSetups.
// A traced run is one child: a traced repetition between two untraced ones.
func runWorkload(wl string, seed int64, seconds int, traced bool, out, record string) (summary, error) {
	// Children inherit this deadline; the run must end within 180 s.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
		return summary{}, err
	}
	var setupS, rssMB []float64
	rep := &childReport{}
	start := time.Now()
	for i := 0; ; i++ {
		r, err := spawn(ctx, "run", wl, seed, i, traced, out, record)
		if err != nil {
			return summary{}, err
		}
		setupS = append(setupS, r.setup.Seconds())
		rssMB = append(rssMB, r.rssMB)
		rep.merge(r.report)
		if traced || time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
	}
	for !traced && len(setupS) < minSetups {
		r, err := spawn(ctx, "setup", wl, seed, 0, false, out, "")
		if err != nil {
			return summary{}, err
		}
		setupS = append(setupS, r.setup.Seconds())
	}

	s := summary{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Printf("== %s  seed %d  %d repetition(s)%s\n", wl, seed, len(rep.Walls), map[bool]string{true: "  (traced run)"}[traced])
	fmt.Printf("   outputs: %d attempted, %d failed, error_rate %.4f\n", rep.Attempted, rep.Failed, ratio(float64(rep.Failed), float64(rep.Attempted)))
	for _, p := range rep.Problems {
		fmt.Printf("   failure: %s\n", p)
	}
	fmt.Printf("   repetition walls (s): %s\n", strings.Trim(fmt.Sprintf("%.3f", rep.Walls), "[]"))
	for i, f := range rep.Fleet {
		fmt.Printf("   fleet rep %d: cluster.plan_passes %.0f for %.0f distinct plan keys, cluster.sim_redundancy %.3f (%.0f sims / %d cells)\n",
			i+1, f.PlanPasses, f.PlanKeys, ratio(f.Sims, float64(f.Cells)), f.Sims, f.Cells)
	}
	if traced {
		for _, m := range perLayer {
			v := rep.Layers[m.Name]
			s.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			fmt.Printf("   %-40s %14.6g %s\n", m.Name, v, m.Unit)
		}
		for _, n := range rep.Notes {
			fmt.Printf("   %s\n", n)
		}
		return s, nil
	}

	p50, _ := percentile(rep.JobMS, 50)
	p90, beyond90 := percentile(rep.JobMS, 90)
	vals := map[string]float64{
		"wall_s":               median(rep.Walls),
		"setup_s":              median(setupS),
		"job_p50_ms":           p50,
		"job_p90_ms":           p90,
		"peak_rss_mb":          median(rssMB),
		"dbp_gm_ipc_ratio_pct": 100 + rep.DBPGM,
	}
	counts := map[string]string{
		"wall_s":               fmt.Sprintf("median of %d repetitions", len(rep.Walls)),
		"setup_s":              fmt.Sprintf("median of %d set-ups", len(setupS)),
		"job_p50_ms":           fmt.Sprintf("n=%d", len(rep.JobMS)),
		"job_p90_ms":           fmt.Sprintf("n=%d, %d beyond", len(rep.JobMS), beyond90),
		"peak_rss_mb":          fmt.Sprintf("median of %d measuring children", len(rssMB)),
		"dbp_gm_ipc_ratio_pct": fmt.Sprintf("dbp_gm_speedup_pct %+.3f%% over %.0f D-BP pairs; simulated, beside the paper's +7.8%%; the model is not validated against hardware", rep.DBPGM, rep.DBPPairs),
	}
	for _, m := range endToEnd {
		s.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		fmt.Printf("   %-20s %14.6f %-3s (%s)\n", m.Name, vals[m.Name], m.Unit, counts[m.Name])
	}
	if t := highestPercentile(rep.JobMS); t.OK {
		fmt.Printf("   job latency: highest percentile with >=%d samples beyond it is p%g = %.3f ms (n=%d, %d beyond)\n",
			minBeyond, t.P, t.Value, t.N, t.Beyond)
	} else {
		fmt.Printf("   job latency: fewer than %d samples beyond the median (n=%d)\n", minBeyond, t.N)
	}
	return s, nil
}
