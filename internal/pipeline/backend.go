package pipeline

import (
	"fmt"
	"sync"
)

// Backend executes a prepared solve against a pool of evaluators and
// returns the source-indexed transform vector for every s-point. It is
// the seam between spec construction/inversion (which always happen on
// the caller) and the compute substrate, so a caller — Model.RunJob,
// the hydra-serve scheduler — is indifferent to whether points are
// evaluated by goroutines in this process or by a fleet of TCP worker
// processes.
//
// The contract:
//
//   - Execute consults cache (which may be nil) before evaluating,
//     reports restored points as RunStats.FromCache, appends every
//     freshly computed vector, and calls Sync before returning;
//   - the returned slice is indexed like spec.Points and is complete on
//     a nil error; each element is the full source-indexed vector;
//   - a failed point evaluation aborts the solve with a *PointError
//     carrying the worker name and point index;
//   - Execute is safe for concurrent use: a Backend is a long-lived
//     resource shared by every request of a resident service.
//
// Two implementations ship with the package: InProc (the goroutine
// pool) and Fleet (resident TCP workers).
type Backend interface {
	Execute(spec *SolveSpec, cache Cache) ([][]complex128, *RunStats, error)
}

// InProc is the in-process Backend: each Execute runs Workers
// goroutines, each owning one Evaluator (its own kernel matrices).
// Evaluators are pooled across Execute calls, so a caller that issues
// many solves back to back — a quantile bisection, a resident server —
// reuses prepared solver workspaces (and their memoised kernels)
// instead of rebuilding them per step. NewEvaluator must be safe to
// call from multiple goroutines; the evaluators it returns need not be.
type InProc struct {
	NewEvaluator func() Evaluator
	Workers      int

	mu   sync.Mutex
	idle []Evaluator
}

// get produces an evaluator, preferring the idle pool.
func (b *InProc) get() Evaluator {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		e := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return e
	}
	b.mu.Unlock()
	return b.NewEvaluator()
}

// put returns an evaluator to the idle pool.
func (b *InProc) put(e Evaluator) {
	b.mu.Lock()
	b.idle = append(b.idle, e)
	b.mu.Unlock()
}

// Execute implements Backend over Run, threading the evaluator pool
// through newEval so solver workspaces survive across calls.
func (b *InProc) Execute(spec *SolveSpec, cache Cache) ([][]complex128, *RunStats, error) {
	workers := b.Workers
	if workers < 1 {
		workers = 1
	}
	var used []Evaluator
	var mu sync.Mutex
	vecs, stats, err := Run(spec, func() Evaluator {
		e := b.get()
		mu.Lock()
		used = append(used, e)
		mu.Unlock()
		return e
	}, workers, cache)
	for _, e := range used {
		b.put(e)
	}
	return vecs, stats, err
}

// PointError reports a transform evaluation that failed on a worker:
// which worker, which point index, and the evaluator's own message.
// Both TCP protocols surface evaluation failures as *PointError so
// operators can tell a numerically diverging s-point (same index fails
// on every worker) from a broken worker node (every index fails on one
// worker).
type PointError struct {
	Worker string // worker name from the handshake
	Index  int    // index into SolveSpec.Points
	Msg    string // the evaluator's error text
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("pipeline: worker %q failed on point %d: %s", e.Worker, e.Index, e.Msg)
}
