//go:build !race

package skyline

const raceEnabled = false
