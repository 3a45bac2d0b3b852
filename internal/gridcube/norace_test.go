//go:build !race

package gridcube

const raceEnabled = false
