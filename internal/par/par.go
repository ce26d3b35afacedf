// Package par provides a bounded, GOMAXPROCS-aware worker pool for the
// corpus-wide analyses: ordered fan-out over an index range with
// deterministic error propagation. Results land at their input index, so
// a parallel map produces exactly the slice the sequential loop would
// have, regardless of scheduling; the first error (by index) wins, so
// error messages do not depend on goroutine interleaving either.
//
// Stream is the ordered producer/consumer form: results are produced in
// parallel within a bounded window and consumed on the calling
// goroutine in index order, so a caller can write out or fold results
// while later ones are still being produced.
//
// On a single-core machine (or for a single item) the helpers run the
// function inline on the calling goroutine — no goroutines, no channel
// traffic — so parallelizing a hot loop never makes it slower.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the pool size for every helper in the package; 0
// selects the GOMAXPROCS default.
var maxWorkers atomic.Int64

// SetMaxWorkers caps the number of workers every helper may use; n <= 0
// restores the GOMAXPROCS default. It returns the previous cap (0 for
// the default) so callers can restore it. Because results always land
// at their input index, output is identical at any setting — the cap
// only changes scheduling.
func SetMaxWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// MaxWorkers reports the current cap (0 = GOMAXPROCS default).
func MaxWorkers() int {
	return int(maxWorkers.Load())
}

// Workers returns the number of workers the pool uses for n items:
// min(n, GOMAXPROCS, SetMaxWorkers cap), and at least 1.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if limit := int(maxWorkers.Load()); limit > 0 && limit < w {
		w = limit
	}
	if n < w {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) across up to GOMAXPROCS
// workers and returns when all calls have completed. fn must be safe to
// call concurrently; writes to distinct slice elements indexed by i are
// fine. A panic inside fn is re-raised on the calling goroutine (for
// concurrent panics, the one at the lowest index wins).
func ForEach(n int, fn func(int)) {
	run(n, Workers(n), fn)
}

// ForEachErr is ForEach for functions that can fail. All indices run to
// completion; the returned error is the one from the lowest failing
// index, matching what a sequential loop that collected the first error
// would report.
func ForEachErr(n int, fn func(int) error) error {
	errs := make([]error, n)
	ForEach(n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map applies fn to every index in [0, n) in parallel and returns the
// results in input order.
func Map[T any](n int, fn func(int) T) []T {
	out := make([]T, n)
	ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for functions that can fail. On error it returns a nil
// slice and the error from the lowest failing index.
func MapErr[T any](n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachErr(n, func(i int) error {
		v, err := fn(i)
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

// Stream runs produce(i) for every i in [0, n) on up to
// min(Workers(n), window) goroutines and hands each result to
// consume(i, v) on the calling goroutine, in index order. At most
// window indices are being produced or waiting to be consumed at any
// time, the one being consumed included, so memory stays bounded by the
// window rather than by n; a window below 1 counts as 1.
//
// The first failure in index order wins, as in a sequential loop that
// calls produce(i) then consume(i) and stops at the first error: once
// produce(i) or consume(i) fails, no produce starts above i and no
// consume runs after it. Indices below a failing produce still run, so
// the error reported never depends on scheduling. A panic in produce is
// re-raised on the calling goroutine when its index comes up for
// consumption. Stream returns only after every goroutine it started has
// exited. With one worker it runs inline and starts no goroutine.
func Stream[T any](n, window int, produce func(int) (T, error), consume func(int, T) error) error {
	return stream(n, window, Workers(n), produce, consume)
}

// streamed is one produced index, parked in its window slot until the
// consumer reaches it.
type streamed[T any] struct {
	v        T
	err      error
	panicked bool
	panicV   any
}

// stream is Stream with the worker count pinned, for tests.
func stream[T any](n, window, workers int, produce func(int) (T, error), consume func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	window = max(min(window, n), 1)
	workers = min(workers, window)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := produce(i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64
		// failAt is the lowest index known to have failed; no produce
		// starts above it.
		failAt atomic.Int64
		wg     sync.WaitGroup
		// tokens holds one token per index between claim and the end
		// of its consume, which is what bounds the window.
		tokens = make(chan struct{}, window)
		quit   = make(chan struct{})
		// Index i parks in slots[i%window]. Its previous tenant,
		// i-window, was consumed before i could take a token, so every
		// send finds the slot empty and never blocks.
		slots = make([]chan streamed[T], window)
	)
	failAt.Store(int64(n))
	for i := range slots {
		slots[i] = make(chan streamed[T], 1)
	}
	fail := func(i int) {
		for {
			cur := failAt.Load()
			if int64(i) >= cur || failAt.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}
	worker := func() {
		defer wg.Done()
		for {
			select {
			case tokens <- struct{}{}:
			case <-quit:
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n || int64(i) > failAt.Load() {
				return
			}
			var r streamed[T]
			func() {
				defer func() {
					if p := recover(); p != nil {
						r.panicked, r.panicV = true, p
					}
				}()
				r.v, r.err = produce(i)
			}()
			if r.err != nil || r.panicked {
				fail(i)
			}
			slots[i%window] <- r
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	// Stop the workers on every way out, a panic in consume included:
	// no produce starts once the consumer has stopped.
	defer func() {
		failAt.Store(-1)
		close(quit)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		r := <-slots[i%window]
		if r.panicked {
			panic(r.panicV)
		}
		if r.err != nil {
			return r.err
		}
		if err := consume(i, r.v); err != nil {
			return err
		}
		<-tokens
	}
	return nil
}

// Range is a contiguous half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Chunks splits [0, n) into at most Workers(n) contiguous ranges of
// near-equal size, in ascending order. Use it when a reduction needs
// per-worker partial state merged deterministically afterwards (merge in
// slice order and the result matches the sequential reduction).
func Chunks(n int) []Range {
	w := Workers(n)
	if n <= 0 {
		return nil
	}
	out := make([]Range, 0, w)
	size, rem := n/w, n%w
	lo := 0
	for i := 0; i < w; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		if hi > lo {
			out = append(out, Range{Lo: lo, Hi: hi})
		}
		lo = hi
	}
	return out
}

// run distributes indices to the given number of workers. It is split
// from the exported helpers so tests can pin the worker count.
func run(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicAt = -1
		panicV  any
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicAt < 0 || i < panicAt {
							panicAt, panicV = i, r
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	wg.Wait()
	if panicAt >= 0 {
		panic(panicV)
	}
}
