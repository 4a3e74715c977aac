// Package par is the deterministic fan-out substrate of the flow: a
// bounded worker pool over independent units of work (table rows,
// sweep points, wafer fields, model fits) with ordered result
// collection, deterministic error propagation, and context.Context
// cancellation.
//
// Determinism contract.  Do and Map produce results that are
// bit-identical for any worker count, including workers = 1:
//
//   - items are dispatched by index and each item writes only its own
//     result slot, so the output never depends on completion order;
//   - on error, the error of the *smallest* item index is returned, not
//     the first one observed;
//   - an item that panics fails with an error carrying the panic value,
//     under the same smallest-index rule, so a panic on a worker
//     goroutine cannot take the process down.
//
// Cancellation contract.  When the context is canceled, in-flight items
// finish but no new item starts, and the returned error wraps
// ctx.Err(), so errors.Is(err, context.Canceled) holds.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Workers resolves a worker-count knob: n > 0 is used as given, any
// other value selects runtime.GOMAXPROCS(0) (one worker per schedulable
// CPU, the package-wide default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// panicError is the error of an item whose function panicked.  The
// panic unwound a goroutine no caller can recover on, so the error
// keeps that goroutine's stack for whoever reports the failure.
type panicError struct {
	item  int
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v", e.item, e.value)
}

// PanicStack returns the stack of the goroutine the panic unwound.
func (e *panicError) PanicStack() []byte { return e.stack }

// call runs f(i), turning a panic into the item's error.
func call(f func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{item: i, value: p, stack: debug.Stack()}
		}
	}()
	return f(i)
}

// Do runs f(i) for every i in [0, n) on at most workers goroutines.
// Items are dispatched in index order from a shared counter.  The first
// error by item index aborts the remaining (not yet started) items and
// is returned; a panicking item counts as a failed one.  A canceled
// context stops dispatch and returns an error wrapping ctx.Err().
func Do(ctx context.Context, n, workers int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("par: canceled after %d/%d items: %w", i, n, err)
			}
			if err := call(f, i); err != nil {
				return err
			}
		}
		return nil
	}

	// Telemetry is observational only: when no Recorder rides the
	// context (rec == nil) the loop below is byte-for-byte the untimed
	// dispatch, so the disabled path stays allocation- and
	// syscall-free.  When enabled, each worker accumulates its busy
	// time locally and folds it in once on exit, so nothing is shared
	// per item.
	rec := obs.From(ctx)
	var wallStart time.Time
	var busyNS atomic.Int64
	if rec != nil {
		wallStart = time.Now()
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			var busy time.Duration
			defer func() {
				if rec != nil {
					busyNS.Add(int64(busy))
				}
				wg.Done()
			}()
			for {
				if stopped.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					stopped.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var err error
				if rec != nil {
					t0 := time.Now()
					err = call(f, i)
					busy += time.Since(t0)
				} else {
					err = call(f, i)
				}
				if err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		wall := time.Since(wallStart)
		rec.Add("par/do_calls", 1)
		rec.Add("par/items", int64(min(int(next.Load()), n)))
		rec.Observe("par/worker_busy", time.Duration(busyNS.Load()))
		if wall > 0 {
			// Occupancy ∈ (0, 1]: fraction of worker·wall capacity
			// spent inside f.
			rec.Set("par/occupancy", float64(busyNS.Load())/(float64(workers)*float64(wall)))
		}
	}
	if firstEr != nil {
		return firstEr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("par: canceled after %d/%d items: %w", min(int(next.Load()), n), n, err)
	}
	return nil
}

// Map runs f over [0, n) like Do and collects the results in index
// order.  On error or cancellation the partial results are discarded.
func Map[T any](ctx context.Context, n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Do(ctx, n, workers, func(i int) error {
		v, err := f(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
