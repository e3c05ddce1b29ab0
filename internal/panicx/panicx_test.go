package panicx

import (
	"errors"
	"io"
	"strings"
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
