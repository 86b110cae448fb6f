package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/simerr"
)

// StalledInst describes the oldest in-flight instruction at the moment the
// watchdog tripped — the instruction whose failure to complete is blocking
// commit, and therefore the first thing to look at in a deadlock.
type StalledInst struct {
	Seq           uint64 // dynamic sequence number
	PC            uint64
	Inst          string // disassembled instruction
	DispatchCycle int64
	Issued        bool  // granted by the select logic
	Scheduled     bool  // completion time known
	CompleteCycle int64 // valid when Scheduled
}

// DeadlockError is the watchdog's diagnosis: the commit stage made no
// progress for the configured cycle budget. It wraps simerr.ErrDeadlock
// and carries the occupancy of every window structure plus the oldest
// stalled instruction, so a hung campaign run leaves an actionable report
// instead of a wedged process.
//
// The budget counts polled cycles only: spans fast-forwarded by the idle
// skip (DESIGN.md §14) advance lastCommitAt with s.now, because a skip is
// only taken when a future wakeup event provably exists — a machine with
// no future event never skips, so every genuine deadlock is still walked
// and diagnosed cycle by cycle.
type DeadlockError struct {
	Config      string // machine name
	Cycle       int64  // cycle at which the watchdog tripped
	SinceCommit int64  // cycles since the last commit
	Committed   uint64 // instructions committed before the stall

	ROBLen, ROBCap int
	IQOccupancy    int
	IQSize         int
	LSQLen, LSQCap int
	FetchQLen      int
	PriorityFree   int // free PUBS priority entries (PUBS machines)

	Oldest *StalledInst // nil when the ROB was empty
}

// Error renders the full occupancy dump.
func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline %s: deadlock: no commit for %d cycles at cycle %d (%d committed)",
		e.Config, e.SinceCommit, e.Cycle, e.Committed)
	fmt.Fprintf(&sb, "; occupancy ROB %d/%d IQ %d/%d LSQ %d/%d fetchQ %d priorityFree %d",
		e.ROBLen, e.ROBCap, e.IQOccupancy, e.IQSize, e.LSQLen, e.LSQCap, e.FetchQLen, e.PriorityFree)
	if e.Oldest != nil {
		o := e.Oldest
		fmt.Fprintf(&sb, "; oldest seq=%d pc=%d %q dispatched@%d issued=%v scheduled=%v complete@%d",
			o.Seq, o.PC, o.Inst, o.DispatchCycle, o.Issued, o.Scheduled, o.CompleteCycle)
	}
	return sb.String()
}

// Unwrap classifies the diagnosis under simerr.ErrDeadlock.
func (e *DeadlockError) Unwrap() error { return simerr.ErrDeadlock }

// deadlockError assembles the diagnosis from the simulator's live state.
func (s *Sim) deadlockError() *DeadlockError {
	e := &DeadlockError{
		Config:       s.cfg.Name,
		Cycle:        s.now,
		SinceCommit:  s.now - s.lastCommitAt,
		Committed:    s.committedTotal,
		ROBLen:       s.rob.Len(),
		ROBCap:       s.rob.Cap(),
		IQOccupancy:  s.q.Occupancy(),
		IQSize:       s.cfg.IQSize,
		LSQLen:       s.lsq.Len(),
		LSQCap:       s.lsq.Cap(),
		FetchQLen:    s.fqLen,
		PriorityFree: s.q.PriorityFree(),
	}
	if h, ok := s.rob.Head(); ok {
		u := &s.uops[h]
		e.Oldest = &StalledInst{
			Seq:           u.di.Seq,
			PC:            u.di.PC,
			Inst:          fmt.Sprint(u.di.Inst),
			DispatchCycle: u.dispatchCycle,
			Issued:        u.issued,
			Scheduled:     u.scheduled,
			CompleteCycle: u.completeCycle,
		}
	}
	return e
}

// checkInterval is the cadence of the opt-in invariant sweep: frequent
// enough to catch corruption close to its cause, cheap enough to leave
// enabled for whole campaigns.
const checkInterval = 64

// checkInvariants audits every window structure, the PUBS tables, the
// wakeup state against the readiness predicate it replaces, and the wake
// index's dedupe table.
func (s *Sim) checkInvariants() error {
	if err := s.q.CheckInvariants(); err != nil {
		return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
	}
	if err := s.rob.CheckInvariants(); err != nil {
		return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
	}
	if err := s.lsq.CheckInvariants(); err != nil {
		return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
	}
	if s.pubs != nil {
		if err := s.pubs.CheckInvariants(); err != nil {
			return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
		}
	}
	if err := s.checkWakeup(); err != nil {
		return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
	}
	if err := s.wake.check(s.now); err != nil {
		return fmt.Errorf("pipeline %s at cycle %d: %w", s.cfg.Name, s.now, err)
	}
	return nil
}
