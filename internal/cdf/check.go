package cdf

import (
	"fmt"
	"sort"
)

// A layoutIssue describes one problem checkLayout found.
type layoutIssue struct {
	Var  string // offending variable ("" for file-level issues)
	Desc string
}

// String formats the issue for reports.
func (i layoutIssue) String() string {
	if i.Var == "" {
		return i.Desc
	}
	return fmt.Sprintf("variable %q: %s", i.Var, i.Desc)
}

// checkLayout verifies the file-layout invariants of a decoded header
// against the actual file size — the checks an fsck for netCDF performs:
//
//   - every variable's Begin lies at or after the header;
//   - VSize matches the recomputed slot size (including the padding rules);
//   - fixed variables do not overlap each other or the record section;
//   - record variables' slots do not overlap within a record;
//   - the file is large enough for the declared NumRecs.
//
// It returns all issues found (empty means the layout is sound).
func (h *Header) checkLayout(fileSize int64) []layoutIssue {
	var issues []layoutIssue
	hdrEnd := h.EncodedSize()
	nrec := h.numRecVars()

	type extent struct {
		name     string
		from, to int64
	}
	var fixed, record []extent
	for i := range h.Vars {
		v := &h.Vars[i]
		// Recompute the expected slot size.
		raw := h.VarSlotSize(v)
		want := round4(raw)
		if nrec == 1 && h.IsRecordVar(v) {
			want = raw
		}
		if v.VSize != want {
			issues = append(issues, layoutIssue{v.Name,
				fmt.Sprintf("vsize %d, recomputed %d", v.VSize, want)})
		}
		if v.Begin < hdrEnd {
			issues = append(issues, layoutIssue{v.Name,
				fmt.Sprintf("begin %d overlaps the header (ends %d)", v.Begin, hdrEnd)})
		}
		e := extent{v.Name, v.Begin, v.Begin + v.VSize}
		if h.IsRecordVar(v) {
			record = append(record, e)
		} else {
			fixed = append(fixed, e)
		}
	}
	overlapCheck := func(kind string, exts []extent) {
		sort.Slice(exts, func(a, b int) bool { return exts[a].from < exts[b].from })
		for i := 1; i < len(exts); i++ {
			if exts[i].from < exts[i-1].to {
				issues = append(issues, layoutIssue{exts[i].name,
					fmt.Sprintf("%s slot [%d,%d) overlaps %q [%d,%d)", kind,
						exts[i].from, exts[i].to,
						exts[i-1].name, exts[i-1].from, exts[i-1].to)})
			}
		}
	}
	overlapCheck("fixed", fixed)
	overlapCheck("record", record)
	// Fixed section must not extend into the record section.
	if len(record) > 0 {
		recStart := h.recordStart()
		for _, e := range fixed {
			if e.to > recStart {
				issues = append(issues, layoutIssue{e.name,
					fmt.Sprintf("fixed slot ends at %d, inside the record section (starts %d)", e.to, recStart)})
			}
		}
		// Record slots must fall within one record's span.
		recSize := h.RecSize()
		for _, e := range record {
			if e.to > recStart+recSize {
				issues = append(issues, layoutIssue{e.name,
					fmt.Sprintf("record slot ends at %d, beyond one record (%d)", e.to, recStart+recSize)})
			}
		}
	}
	// File size must cover the declared contents. (A file may be *larger* —
	// preallocation or alignment tails are legal.)
	if need := h.FileSize(); fileSize >= 0 && fileSize < need {
		issues = append(issues, layoutIssue{"",
			fmt.Sprintf("file is %d bytes but the header declares %d (numrecs %d)", fileSize, need, h.NumRecs)})
	}
	return issues
}

// CheckFile decodes and fully validates a file image: header syntax,
// structural rules (Validate) and layout invariants (checkLayout).
func CheckFile(img []byte) (*Header, []layoutIssue, error) {
	h, err := Decode(img) // Decode applies Validate itself
	if err != nil {
		return nil, nil, err
	}
	return h, h.checkLayout(int64(len(img))), nil
}
