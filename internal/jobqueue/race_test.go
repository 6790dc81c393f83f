//go:build race

package jobqueue

const raceEnabled = true
