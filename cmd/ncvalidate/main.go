// Command ncvalidate is an fsck for netCDF classic files: it decodes the
// header, checks the structural rules (names, dimensions, types) and the
// layout invariants (slot sizes, overlaps, record geometry, file size), and
// reports everything it finds.
//
// Usage:
//
//	ncvalidate file.nc [more.nc ...]
//
// Exit status 0 if every file is clean, 1 otherwise.
package main

import (
	"fmt"
	"os"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/cmdutil"
)

func main() {
	if len(os.Args) < 2 {
		cmdutil.Usagef("usage: ncvalidate file.nc [more.nc ...]")
	}
	bad := false
	for _, path := range os.Args[1:] {
		img, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ncvalidate: %v\n", err)
			bad = true
			continue
		}
		report, clean := classify(img)
		fmt.Printf("%s: %s\n", path, report)
		bad = bad || !clean
	}
	if bad {
		os.Exit(1)
	}
}

// classify reports on one file image; clean is false for anything but a
// sound file.
func classify(img []byte) (report string, clean bool) {
	h, issues, err := cdf.CheckFile(img)
	if err != nil {
		// An unreadable in-place header may be a crash mid header
		// commit; classify it by the commit journal at the tail.
		if rec := cdf.RecoverJournal(img); rec != nil {
			if rh, rerr := cdf.Decode(rec); rerr == nil {
				return fmt.Sprintf("TORN HEADER, recoverable: commit journal holds a valid header (%d dims, %d vars, %d records); reopen writable to repair",
					len(rh.Dims), len(rh.Vars), rh.NumRecs), false
			}
		}
		// No magic and no journal: the file's first commit (which writes
		// the magic last and needs no journal, there being no older header
		// to protect) died, or never ran.
		if len(img) == 0 || len(img) >= 4 && [4]byte(img[:4]) == [4]byte{} {
			return "creation never completed: no header was ever committed", false
		}
		return fmt.Sprintf("INVALID: %v", err), false
	}
	if len(issues) > 0 {
		report = fmt.Sprintf("%d layout issue(s):", len(issues))
		for _, iss := range issues {
			report += fmt.Sprintf("\n  - %s", iss)
		}
		return report, false
	}
	kind := map[int]string{1: "classic", 2: "64-bit offset", 5: "64-bit data"}[h.Version]
	return fmt.Sprintf("OK (%s format, %d dims, %d vars, %d records)", kind, len(h.Dims), len(h.Vars), h.NumRecs), true
}
