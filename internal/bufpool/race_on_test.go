//go:build race

package bufpool

// Under the race detector sync.Pool drops a fraction of Put items, so the
// allocation pin does not hold.
const raceEnabled = true
