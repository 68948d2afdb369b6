// Package bench is the measurement harness that regenerates the paper's
// evaluation: the Figure 6 scalability study (serial netCDF vs PnetCDF over
// seven 3-D partitions), the Figure 7 FLASH I/O comparison (PnetCDF vs the
// HDF5-style library), and the ablations over the design choices DESIGN.md
// calls out. Machines are simulated (internal/pfs + internal/mpi virtual
// time); data movement is real.
package bench

import (
	"fmt"
	"math"
)

// Partition names the seven decompositions of paper Figure 5: which axes of
// tt(Z,Y,X) are split across processes.
type Partition int

// The partition patterns, in the paper's order.
const (
	PartZ Partition = iota
	PartY
	PartX
	PartZY
	PartZX
	PartYX
	PartZYX
)

// AllPartitions lists the seven patterns in display order.
var AllPartitions = []Partition{PartZ, PartY, PartX, PartZY, PartZX, PartYX, PartZYX}

// String returns the paper's label.
func (p Partition) String() string {
	switch p {
	case PartZ:
		return "Z"
	case PartY:
		return "Y"
	case PartX:
		return "X"
	case PartZY:
		return "ZY"
	case PartZX:
		return "ZX"
	case PartYX:
		return "YX"
	case PartZYX:
		return "ZYX"
	}
	return fmt.Sprintf("Partition(%d)", int(p))
}

// axes returns the indices (0=Z, 1=Y, 2=X) the partition splits.
func (p Partition) axes() []int {
	switch p {
	case PartZ:
		return []int{0}
	case PartY:
		return []int{1}
	case PartX:
		return []int{2}
	case PartZY:
		return []int{0, 1}
	case PartZX:
		return []int{0, 2}
	case PartYX:
		return []int{1, 2}
	case PartZYX:
		return []int{0, 1, 2}
	}
	return nil
}

// balancedFactors splits n into k factors, as equal as possible, largest
// first (assigned to the most significant split axis).
func balancedFactors(n, k int) []int {
	out := make([]int, k)
	remaining := n
	for i := 0; i < k; i++ {
		if i == k-1 {
			out[i] = remaining
			break
		}
		// Aim at the (k-i)'th root of what is left: take the largest divisor
		// at or below it, falling back to the smallest divisor above 1.
		target := int(math.Round(math.Pow(float64(remaining), 1/float64(k-i))))
		if target < 1 {
			target = 1
		}
		best := 1
		for f := 1; f <= target; f++ {
			if remaining%f == 0 {
				best = f
			}
		}
		if best == 1 && remaining > 1 {
			best = remaining
			for f := 2; f < remaining; f++ {
				if remaining%f == 0 {
					best = f
					break
				}
			}
		}
		out[i] = best
		remaining /= best
	}
	return out
}

// Decompose returns this rank's (start, count) block of an array of the
// given dims under partition p with nprocs processes. Axes not split get the
// full extent. Processes are assigned in row-major order over the split
// grid.
func Decompose(p Partition, dims [3]int64, nprocs, rank int) (start, count [3]int64) {
	axes := p.axes()
	factors := balancedFactors(nprocs, len(axes))
	// Rank index within the split grid (row-major across axes order).
	coords := make([]int, len(axes))
	r := rank
	for i := len(axes) - 1; i >= 0; i-- {
		coords[i] = r % factors[i]
		r /= factors[i]
	}
	for d := 0; d < 3; d++ {
		start[d] = 0
		count[d] = dims[d]
	}
	for i, ax := range axes {
		parts := int64(factors[i])
		whole := dims[ax]
		base := whole / parts
		rem := whole % parts
		c := int64(coords[i])
		count[ax] = base
		if c < rem {
			count[ax]++
		}
		start[ax] = base*c + min(c, rem)
	}
	return start, count
}
