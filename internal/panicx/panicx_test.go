package panicx

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

// raise panics with v from a named frame, so the stack shows where.
func raise(v any) { panic(v) }

// catch runs f, which panics, and returns what Recovered makes of it.
func catch(f func()) (e *Error) {
	defer func() { e = Recovered(recover()) }()
	f()
	return nil
}

// TestRecoveredKeepsRaisingStack: the stack is the one that panicked,
// re-raising an *Error keeps its first stack, and an error value stays
// reachable through errors.Is.
func TestRecoveredKeepsRaisingStack(t *testing.T) {
	e := catch(func() { raise(io.ErrUnexpectedEOF) })
	if !strings.Contains(string(e.Stack), "panicx.raise(") {
		t.Fatalf("stack does not show the panicking frame:\n%s", e.Stack)
	}
	if e.Error() != io.ErrUnexpectedEOF.Error() || !errors.Is(e, io.ErrUnexpectedEOF) {
		t.Fatalf("Error() = %q, errors.Is = %v; want the panic's error", e.Error(), errors.Is(e, io.ErrUnexpectedEOF))
	}
	if again := catch(func() { panic(e) }); again != e {
		t.Fatalf("re-raised *Error came back as %p, want %p with its first stack", again, e)
	}
	if s := catch(func() { raise("text") }); s.Error() != "text" || s.Unwrap() != nil {
		t.Fatalf("string panic: Error() = %q, Unwrap() = %v", s.Error(), s.Unwrap())
	}
}

// TestBlocksPanicReachesCaller: a panic in a pool goroutine is re-raised
// on the caller's goroutine once the pool has stopped, where a recover
// can reach it, with the pool goroutine's stack; the other workers stop
// at their next grant.
func TestBlocksPanicReachesCaller(t *testing.T) {
	const block = 32
	var calls atomic.Int64
	got := func() (r any) {
		defer func() { r = recover() }()
		Blocks(64*block, 2, block, func(_, lo, _ int) {
			calls.Add(1)
			if lo == 3*block {
				raise("block 3 failed")
			}
		})
		return nil
	}()
	p, ok := got.(*Error)
	if !ok || p.Value != "block 3 failed" {
		t.Fatalf("Blocks recovered %v, want block 3's panic", got)
	}
	if !strings.Contains(string(p.Stack), "panicx.raise(") || !strings.Contains(string(p.Stack), "panicx.Blocks.func") {
		t.Fatalf("recovered panic's stack is not the pool goroutine's:\n%s", p.Stack)
	}
	if n := calls.Load(); n < 4 || n > 64 {
		t.Fatalf("%d blocks ran, want block 3 and at most all 64", n)
	}
}

// TestBlocksCoversRangeOnce: every index runs exactly once, in blocks no
// longer than the grant, with every worker index below the worker count,
// inline (one worker, or a range within one block) and pooled.
func TestBlocksCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers, block int }{
		{0, 4, 8}, {5, 1, 8}, {5, 4, 8}, {100, 3, 7}, {1000, 4, 16},
	} {
		seen := make([]atomic.Int32, tc.n)
		Blocks(tc.n, tc.workers, tc.block, func(w, lo, hi int) {
			if w < 0 || w >= max(tc.workers, 1) || (tc.workers > 1 && tc.n > tc.block && hi-lo > tc.block) {
				t.Errorf("%+v: block [%d, %d) on worker %d", tc, lo, hi, w)
			}
			for i := lo; i < hi; i++ {
				seen[i].Add(1)
			}
		})
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Fatalf("%+v: index %d ran %d times", tc, i, c)
			}
		}
	}
}
