//go:build !race

package indexmerge

const raceEnabled = false
