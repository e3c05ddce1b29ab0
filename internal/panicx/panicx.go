// Package panicx carries a panic from a pool goroutine to the goroutine
// that waits for the pool, keeping the stack it was raised on, and holds
// the one fork-join pool that does so (Blocks).
//
// A panic on a pool goroutine ends the process, so the pools recover it
// and re-raise it once the pool has stopped, where a recover can reach
// it. Re-raised as is, the value would lose its location: the stack a
// recover sees then is the waiter's, not the one that failed.
package panicx

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Error is a recovered panic value with the stack of the goroutine that
// raised it.
type Error struct {
	Value any
	Stack []byte
}

// Recovered wraps r, a value just returned by recover, with the stack of
// the calling goroutine — called from the deferred function, that stack
// still holds the frames that panicked. An r that is already an *Error
// keeps the stack it carries.
func Recovered(r any) *Error {
	if e, ok := r.(*Error); ok {
		return e
	}
	return &Error{Value: r, Stack: debug.Stack()}
}

// Error returns the panic value's text.
func (e *Error) Error() string { return fmt.Sprint(e.Value) }

// Unwrap returns the panic value when it is an error.
func (e *Error) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// Blocks runs fn over [0, n) in blocks of `block` indices handed out off
// an atomic cursor to `workers` goroutines, and returns once every block
// has run. fn(w, lo, hi) covers [lo, hi); w < max(workers, 1) names the
// goroutine, so fn can keep per-worker scratch. Dynamic blocks rather
// than contiguous shards, because row costs are often skewed (hub rows,
// triangular pair scans), and small grants keep the pool busy to the
// last block. With one worker (or n <= block) fn runs once, inline, over
// the whole range with w = 0.
//
// A panic in fn on a pool goroutine stops the other workers at their
// next grant and is re-raised on the caller's goroutine once the pool
// has stopped, where a recover can reach it, as an *Error that keeps the
// pool goroutine's stack.
func Blocks(n, workers, block int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= block {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	workers = min(workers, (n+block-1)/block)
	var (
		next     atomic.Int64
		panicked atomic.Pointer[Error]
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, Recovered(r))
					next.Store(int64(n)) // the other workers stop at their next grant
				}
			}()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}
