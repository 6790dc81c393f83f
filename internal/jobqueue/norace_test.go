//go:build !race

package jobqueue

const raceEnabled = false
