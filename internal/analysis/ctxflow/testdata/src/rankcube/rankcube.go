// Package rankcube stands in for the public root package: it is held to the
// library rule, so a positional wrapper minting a background context for a
// ctx-first entry point is flagged, and only the nil-fallback assignment
// may call context.Background.
package rankcube

import "context"

// Query is the ctx-first entry point.
func Query(ctx context.Context, n int) error {
	if ctx == nil {
		ctx = context.Background() // the documented nil-fallback: allowed
	}
	return ctx.Err()
}

// TopK is a positional wrapper of the deleted generation.
func TopK(n int) error {
	return Query(context.Background(), n) // want `context.Background\(\) in a library package`
}
