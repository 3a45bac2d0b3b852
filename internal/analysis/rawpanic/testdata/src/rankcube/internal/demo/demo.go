// Package demo exercises the rawpanic analyzer: unmarked panics fire,
// marked assertions and shadowed identifiers do not.
package demo

import "fmt"

// explode is the recoverable-fault shape the analyzer exists to catch.
func Explode(err error) {
	if err != nil {
		panic(err) // want `raw panic outside internal/errs`
	}
}

// Formatted panics are equally flagged.
func Unsupported(op string) {
	panic(fmt.Sprintf("demo: unsupported op %q", op)) // want `raw panic outside internal/errs`
}

// AssertPositive is a programmer-error assertion: the marker above the call
// suppresses the finding.
func AssertPositive(n int) {
	if n < 0 {
		//lint:invariant n is validated by every public constructor
		panic(fmt.Sprintf("demo: negative %d", n))
	}
}

// InlineMarker shows the trailing-comment marker placement.
func InlineMarker() {
	panic("demo: unreachable") //lint:invariant documented to be unreachable
}

// WrongMarker carries an unrelated marker and still fires.
func WrongMarker() {
	//lint:lockorder not the right marker for panics
	panic("demo: wrong marker") // want `raw panic outside internal/errs`
}

// Shadowed calls a local function named panic, not the builtin.
func Shadowed() {
	panic := func(v any) { _ = v }
	panic("not the builtin")
}
