//go:build !race

package mpi_test

const raceEnabled = false
