// Package ctxpub exercises ctxflow outside the library (a command or an
// example): a program owns its root context and may mint one, but still may
// not discard an in-scope caller context.
package ctxpub

import "context"

// Run is the context-aware entry point.
func Run(ctx context.Context, n int) error {
	return ctx.Err()
}

// Main runs on a background context; no caller ctx is in scope and this is
// not a library package, so it is allowed.
func Main(n int) error {
	return Run(context.Background(), n)
}

// Shadowing discards the caller's context even here.
func Shadowing(ctx context.Context, n int) error {
	_ = ctx.Err()
	return Run(context.Background(), n) // want `context.Background\(\) discards the in-scope ctx parameter "ctx"`
}
