//go:build race

package skyline

// raceEnabled: under the race detector sync.Pool drops a share of what is put
// back, so a search may find no pooled arena and allocate its own.
const raceEnabled = true
