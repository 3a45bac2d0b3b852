//go:build race

package indexmerge

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so a query may find no pooled state and allocate its own.
const raceEnabled = true
