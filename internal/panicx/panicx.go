// Package panicx carries a panic from a pool goroutine to the goroutine
// that waits for the pool, keeping the stack it was raised on.
//
// A panic on a pool goroutine ends the process, so the training pools
// recover it and re-raise it once the pool has stopped, where a recover
// can reach it. Re-raised as is, the value would lose its location: the
// stack a recover sees then is the waiter's, not the one that failed.
package panicx

import (
	"fmt"
	"runtime/debug"
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
