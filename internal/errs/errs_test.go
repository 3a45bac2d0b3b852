package errs

import (
	"context"
	"errors"
	"testing"
)

// recoverAbort runs fn and returns the error carried by a typed abort, nil
// when fn returns normally. Non-abort panics propagate.
func recoverAbort(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = IsAbort(r); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return nil
}

func TestAbortCarriesError(t *testing.T) {
	want := errors.New("boom")
	err := recoverAbort(func() { Abort(want) })
	if err != want {
		t.Fatalf("recovered %v, want %v", err, want)
	}
}

func TestAbortfWrapsSentinel(t *testing.T) {
	err := recoverAbort(func() { Abortf(ErrPageCorrupt, "page %d bad", 7) })
	if !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("err %v does not wrap ErrPageCorrupt", err)
	}
	if got := err.Error(); got != "page 7 bad: page corrupt" {
		t.Fatalf("message %q", got)
	}
}

func TestCanceledMatchesBothSentinels(t *testing.T) {
	err := Canceled(context.DeadlineExceeded)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not match ErrCanceled and its cause", err)
	}
	if got := err.Error(); got != "query canceled: context deadline exceeded" {
		t.Fatalf("message %q", got)
	}
}

func TestFromPanic(t *testing.T) {
	if err := FromPanic(nil); err != nil {
		t.Fatalf("nil recover value gave %v", err)
	}
	inner := errors.New("inner")
	var carried any
	func() {
		defer func() { carried = recover() }()
		Abort(inner)
	}()
	if err := FromPanic(carried); err != inner {
		t.Fatalf("abort gave %v, want %v", err, inner)
	}
	if err := FromPanic("stray panic"); !errors.Is(err, ErrInternal) {
		t.Fatalf("foreign panic gave %v, want ErrInternal wrap", err)
	}
}

func TestIsAbortRejectsForeignPanics(t *testing.T) {
	if _, ok := IsAbort("not an abort"); ok {
		t.Fatal("foreign panic value reported as abort")
	}
}

func TestDegradable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrPageCorrupt, true},
		{ErrReadFailed, true},
		{ErrStructureUnavailable, true},
		{ErrInternal, true},
		{ErrCanceled, false},
		{ErrBudgetExceeded, false},
		{errors.New("unrelated"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Degradable(c.err); got != c.want {
			t.Errorf("Degradable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	// Wrapped sentinels stay classified.
	var wrapped error
	func() {
		defer func() { wrapped, _ = IsAbort(recover()) }()
		Abortf(ErrReadFailed, "store x")
	}()
	if !Degradable(wrapped) {
		t.Fatalf("wrapped ErrReadFailed not degradable: %v", wrapped)
	}
}
