//go:build !race

package pnetcdf_test

const raceEnabled = false
