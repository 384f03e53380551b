package uksched

import (
	"sync"

	"cubicleos/internal/cycles"
)

// SMP is the sharded multi-core scheduler: one run queue per simulated
// core, each quantum executed by a real goroutine worker per core, with a
// barrier between quanta. Tasks stay on the core they were added to: a
// migrated task would charge its birth core's clock from another worker.
//
// Determinism contract: within a quantum a worker touches only its own
// core's queue and state, so the host's goroutine interleaving cannot
// change what any core executes. The one cross-core decision — the GVT
// barrier on the attached Machine — happens on the coordinating goroutine
// between quanta, from state that is itself deterministic. For a fixed
// task set and core count, every run executes the identical per-core step
// sequences (the determinism tests pin five runs to identical counters).
type SMP struct {
	queues [][]namedTask

	// Machine, when set, gets a GVT barrier after every quantum.
	Machine *cycles.Machine

	// Steps counts task steps executed per core (observability).
	Steps []uint64
	// Quanta counts completed quanta.
	Quanta uint64
}

type namedTask struct {
	name string
	t    Task
}

// NewSMP returns an empty scheduler over n cores (n >= 1).
func NewSMP(n int) *SMP {
	if n < 1 {
		n = 1
	}
	return &SMP{queues: make([][]namedTask, n), Steps: make([]uint64, n)}
}

// Add queues a task on the given core under a diagnostic name.
func (s *SMP) Add(core int, name string, t Task) {
	s.queues[core] = append(s.queues[core], namedTask{name: name, t: t})
}

// AddFunc queues a function task on the given core.
func (s *SMP) AddFunc(core int, name string, f func() Status) {
	s.Add(core, name, TaskFunc(f))
}

// Len returns the number of live tasks across all cores.
func (s *SMP) Len() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// runCore makes this core's round-robin pass for one quantum. It is the
// only code that touches queues[core] while workers run; the coordinator's
// WaitGroup join publishes the result before any cross-core access.
func (s *SMP) runCore(core int) bool {
	progress := false
	q := s.queues[core]
	for i := 0; i < len(q); {
		s.Steps[core]++
		switch q[i].t.Step() {
		case Done:
			q = append(q[:i], q[i+1:]...)
			progress = true
		case Yield:
			progress = true
			i++
		default: // Block
			i++
		}
	}
	s.queues[core] = q
	return progress
}

// RunQuantum runs one quantum: every core with queued tasks executes its
// pass on its own goroutine, then the coordinator joins them and takes the
// GVT barrier. It reports whether any core made progress.
func (s *SMP) RunQuantum() bool {
	progress := make([]bool, len(s.queues))
	var wg sync.WaitGroup
	for core := range s.queues {
		if len(s.queues[core]) == 0 {
			continue
		}
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			progress[core] = s.runCore(core)
		}(core)
	}
	wg.Wait()
	s.Quanta++
	if s.Machine != nil {
		s.Machine.Barrier()
	}
	for _, p := range progress {
		if p {
			return true
		}
	}
	return false
}

// Run drives quanta until all tasks are done, or until maxIdle
// consecutive quanta make no progress. It reports whether all tasks
// completed.
func (s *SMP) Run(maxIdle int) bool {
	idle := 0
	for s.Len() > 0 {
		if s.RunQuantum() {
			idle = 0
		} else {
			idle++
			if idle >= maxIdle {
				return false
			}
		}
	}
	return true
}

// Blocked returns the names of tasks still queued, core-major
// (diagnostics after a failed Run).
func (s *SMP) Blocked() []string {
	var out []string
	for _, q := range s.queues {
		for _, nt := range q {
			out = append(out, nt.name)
		}
	}
	return out
}
