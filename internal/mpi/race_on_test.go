//go:build race

package mpi

// Under the race detector sync.Pool drops a fraction of Put items, so the
// allocation pins do not hold.
const raceEnabled = true
