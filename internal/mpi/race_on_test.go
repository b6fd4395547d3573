//go:build race

package mpi_test

// raceEnabled narrows the replay oracle's matrix: the race detector
// slows the goroutine engine several times over.
const raceEnabled = true
