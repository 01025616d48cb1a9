package sparse

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent group of worker goroutines shared by the
// parallel kernels in this package. The workers are spawned once and
// park on a channel between calls, so a fixed-point solver running
// hundreds of iterations pays goroutine-creation cost once instead of
// once per matrix–vector product.
//
// A Pool of W workers spawns W-1 background goroutines; the goroutine
// calling Run always participates, so W=1 (and a nil *Pool) execute
// entirely inline with zero scheduling overhead. Tasks are handed out
// through an atomic counter, so a worker that finishes a cheap chunk
// immediately steals the next one — combined with the edge-balanced
// chunk plans built by NewTransition this keeps skewed citation
// graphs from serialising on their hottest rows.
//
// Run may be invoked from multiple goroutines concurrently; each call
// blocks until its own tasks are complete. Close releases the
// background workers. After Close, Run degrades to inline serial
// execution, so a closed pool is still safe to use.
type Pool struct {
	workers int
	work    chan *poolJob
	closed  atomic.Bool
	once    sync.Once
	exited  sync.WaitGroup // background workers still running

	// Occupancy counters for observability: Run invocations and tasks
	// dispatched over the pool's lifetime.
	runs  atomic.Uint64
	tasks atomic.Uint64
}

// PoolStats is a point-in-time occupancy summary of a pool: its
// parallelism and the cumulative kernel sweeps (Runs) and chunk tasks
// (Tasks) it has executed. Tasks/Runs is the average chunk fan-out
// per sweep — how much of the pool each kernel actually engages.
type PoolStats struct {
	Workers int
	Runs    uint64
	Tasks   uint64
}

// Stats reports the pool's occupancy counters. A nil pool reports a
// single inline worker with no recorded activity.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{Workers: 1}
	}
	return PoolStats{Workers: p.Workers(), Runs: p.runs.Load(), Tasks: p.tasks.Load()}
}

// poolJob is one Run invocation: a task body and an atomic cursor
// over [0, total).
type poolJob struct {
	fn    func(task int)
	next  atomic.Int64
	total int64
	wg    sync.WaitGroup
}

func (j *poolJob) drain() {
	for {
		t := j.next.Add(1) - 1
		if t >= j.total {
			return
		}
		j.fn(int(t))
		j.wg.Done()
	}
}

// NewPool creates a pool with the given number of workers; values < 1
// select runtime.NumCPU(). The pool holds workers-1 parked goroutines
// until Close is called.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.work = make(chan *poolJob, workers-1)
		p.exited.Add(workers - 1)
		for i := 0; i < workers-1; i++ {
			go func() {
				defer p.exited.Done()
				for j := range p.work {
					j.drain()
				}
			}()
		}
	}
	return p
}

// Workers returns the parallelism of the pool. A nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.closed.Load() {
		return 1
	}
	return p.workers
}

// Run executes fn(0) … fn(total-1), spreading the calls over the
// pool's workers, and returns when all of them have completed. Tasks
// are claimed dynamically, so uneven task costs balance themselves.
// On a nil, closed or single-worker pool the calls run inline on the
// calling goroutine, in order.
func (p *Pool) Run(total int, fn func(task int)) {
	if total <= 0 {
		return
	}
	if p != nil {
		p.runs.Add(1)
		p.tasks.Add(uint64(total))
	}
	if p == nil || p.workers <= 1 || total == 1 || p.closed.Load() {
		for i := 0; i < total; i++ {
			fn(i)
		}
		return
	}
	j := &poolJob{fn: fn, total: int64(total)}
	j.wg.Add(total)
	wake := p.workers - 1
	if wake > total-1 {
		wake = total - 1
	}
	// Non-blocking wake-ups: if the queue is full every worker is
	// already busy, and the caller is better off working than waiting
	// for a free slot.
wakeLoop:
	for i := 0; i < wake; i++ {
		select {
		case p.work <- j:
		default:
			break wakeLoop
		}
	}
	j.drain() // the caller is a worker too
	j.wg.Wait()
}

// Close releases the background workers and returns once they have
// exited. It is idempotent; Run calls after Close execute serially on
// the caller. Close must not be called while a Run is in flight.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {
		p.closed.Store(true)
		if p.work != nil {
			close(p.work)
			p.exited.Wait()
		}
	})
}
