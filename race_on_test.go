//go:build race

package pnetcdf_test

// Under the race detector sync.Pool deliberately drops a fraction of Put
// items to widen interleaving coverage, so byte pins that rest on pooled
// buffers do not hold; those tests skip themselves.
const raceEnabled = true
