// Package osched models a guest OS time-slice scheduler, answering two
// of the paper's open problems concretely:
//
//   - "how to make OS directly run on PARD server to support
//     process-level DiffServ?" — each process carries its own DS-id;
//     the scheduler rewrites the core's tag register at every context
//     switch, so per-process packets are distinguishable at every
//     control plane.
//   - "how to support nested DiffServ, i.e., guarantee QoS of a process
//     within a LDom?" — with per-process DS-ids, ordinary tag-based
//     rules (way masks, priorities) apply at process granularity.
//
// The scheduler is itself a workload.Generator: it multiplexes its
// processes' operation streams onto the core it is bound to.
package osched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Process is one schedulable entity.
type Process struct {
	Name string
	DSID core.DSID
	Gen  workload.Generator

	// Runtime accounting.
	Slices uint64
	RunFor sim.Tick
	Done   bool
}

// Scheduler multiplexes processes on one core with round-robin time
// slices, switching the core's DS-id tag register at each context
// switch. SwitchCycles models the context-switch cost.
type Scheduler struct {
	tag   *core.TagRegister
	slice sim.Tick
	procs []*Process

	cur          int
	sliceEnd     sim.Tick
	started      bool
	switchCost   uint64
	lastDispatch sim.Tick
	prevIdx      int

	// ContextSwitches counts tag-register rewrites.
	ContextSwitches uint64
}

// New builds a scheduler bound to a core's tag register. slice is the
// quantum; switchCycles the per-switch overhead (0 = 500 cycles).
func New(tag *core.TagRegister, slice sim.Tick, switchCycles uint64, procs ...*Process) *Scheduler {
	if tag == nil {
		panic("osched: nil tag register")
	}
	if slice == 0 {
		panic("osched: zero time slice")
	}
	if len(procs) == 0 {
		panic("osched: no processes")
	}
	if switchCycles == 0 {
		switchCycles = 500
	}
	return &Scheduler{tag: tag, slice: slice, procs: procs, switchCost: switchCycles}
}

// runnable returns the index of the next non-done process at or after
// i, or -1.
func (s *Scheduler) runnable(from int) int {
	for off := 0; off < len(s.procs); off++ {
		i := (from + off) % len(s.procs)
		if !s.procs[i].Done {
			return i
		}
	}
	return -1
}

// Next implements workload.Generator.
func (s *Scheduler) Next(now sim.Tick) workload.Op {
	if !s.started {
		s.started = true
		s.cur = s.runnable(0)
		if s.cur == -1 {
			return workload.Op{Kind: workload.OpDone}
		}
		s.dispatch(now)
		return workload.Op{Kind: workload.OpCompute, Cycles: s.switchCost}
	}

	if now >= s.sliceEnd {
		next := s.runnable(s.cur + 1)
		if next == -1 {
			return workload.Op{Kind: workload.OpDone}
		}
		if next != s.cur || s.procs[s.cur].Done {
			s.cur = next
			s.dispatch(now)
			return workload.Op{Kind: workload.OpCompute, Cycles: s.switchCost}
		}
		// Sole runnable process: extend the slice without a switch.
		s.sliceEnd = now + s.slice
	}

	p := s.procs[s.cur]
	op := p.Gen.Next(now)
	if op.Kind == workload.OpDone {
		p.Done = true
		if s.runnable(0) == -1 {
			return op
		}
		// Re-enter to switch immediately.
		s.sliceEnd = now
		return s.Next(now)
	}
	return op
}

// dispatch performs the context switch to s.cur at time now, charging
// the outgoing process its elapsed run time.
func (s *Scheduler) dispatch(now sim.Tick) {
	if s.ContextSwitches > 0 {
		prev := s.procs[s.prevIdx]
		prev.RunFor += now - s.lastDispatch
	}
	s.prevIdx = s.cur
	s.lastDispatch = now
	p := s.procs[s.cur]
	s.tag.Set(p.DSID)
	p.Slices++
	s.ContextSwitches++
	s.sliceEnd = now + s.slice
}

func (s *Scheduler) String() string {
	return fmt.Sprintf("osched: %d procs, %d switches", len(s.procs), s.ContextSwitches)
}
