package main

import (
	"bufio"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// msBetween is b - a in milliseconds.
func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// shutdown drains a daemon; the benchmark never leaves one running.
func shutdown(svc *service.Service) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = svc.Shutdown(ctx) // a drain that times out still returns; nothing to report
}

// checkJob counts a finished job's cells as attempted, and every failed,
// missing or mismatched cell as failed. It returns the job's status.
func checkJob(job *service.Job, ck *checker, t *tally, set *cellSet) service.JobStatus {
	st := job.Status()
	t.add(st.TotalCells)
	if st.FailedCells > 0 {
		t.fail(st.FailedCells, fmt.Errorf("job %s: %d cells failed: %v", st.ID, st.FailedCells, st.Errors))
	}
	if missing := st.TotalCells - st.FailedCells - len(st.Results); missing > 0 {
		t.fail(missing, fmt.Errorf("job %s (%s): %d cells have no result", st.ID, st.State, missing))
	}
	for _, r := range st.Results {
		if err := ck.check(r); err != nil {
			t.fail(1, fmt.Errorf("job %s: %w", st.ID, err))
		}
		set.add(r)
	}
	return st
}

// parseMetrics sums a /metrics document's series by name. Quantile series
// are skipped; their _count companions are kept.
func parseMetrics(text string) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "quantile=") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return m
}

// serviceCounters sums the exported counters of the given daemons.
func serviceCounters(svcs ...*service.Service) map[string]float64 {
	sum := map[string]float64{}
	for _, s := range svcs {
		for k, v := range parseMetrics(s.MetricsText()) {
			sum[k] += v
		}
	}
	return sum
}
