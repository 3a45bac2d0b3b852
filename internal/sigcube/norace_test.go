//go:build !race

package sigcube

const raceEnabled = false
