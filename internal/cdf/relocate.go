package cdf

import (
	"slices"
	"sort"
)

// Move is one contiguous piece of data a changed layout carries from From to
// To.
type Move struct{ From, To, N int64 }

// RelocationPlan lists the moves that carry the data laid out by old — the
// header a Redef started from — to h's layout, in an order that is safe to
// execute one after another with Move.Copy: no move overwrites bytes a later
// one still has to read. Variables are matched by index (a define mode only
// appends variables, it may rename them), whole fixed variables and each
// existing record slot are one move, and pieces that stay where they are are
// left out.
//
// Data moves both ways: toward the end of the file when the header grows or
// a variable gains alignment padding, toward the front when an attribute is
// deleted or a file laid out under one nc_var_align_size is redefined under a
// smaller one. Both layouts keep the pieces in the same file order, so a
// piece moving back can only land on pieces before it and one moving forward
// only on pieces after it: walking the file front to back, a backward move
// runs as it is met and each maximal run of forward moves runs last piece
// first.
func (h *Header) RelocationPlan(old *Header) []Move {
	var moves []Move
	add := func(from, to, n int64) {
		if from != to && n > 0 {
			moves = append(moves, Move{from, to, n})
		}
	}
	for i := range old.Vars {
		ov, nv := &old.Vars[i], &h.Vars[i]
		if !h.IsRecordVar(nv) {
			add(ov.Begin, nv.Begin, ov.VSize)
			continue
		}
		for rec := int64(0); rec < old.NumRecs; rec++ {
			add(old.RecordOffset(ov, rec), h.RecordOffset(nv, rec), ov.VSize)
		}
	}
	sort.Slice(moves, func(a, b int) bool { return moves[a].From < moves[b].From })
	for i := 0; i < len(moves); i++ {
		j := i
		for j < len(moves) && moves[j].To > moves[j].From {
			j++
		}
		slices.Reverse(moves[i:j]) // a forward run, last piece first
		i = j                      // the backward move behind it stays in its place
	}
	return moves
}

// Copy carries the move out through readAt and writeAt in pieces of at most
// len(buf) bytes, starting from the end the data moves toward so that a move
// onto its own source never reads a byte it has already overwritten.
func (m Move) Copy(buf []byte, readAt, writeAt func(p []byte, off int64) error) error {
	for done := int64(0); done < m.N; {
		k := min(m.N-done, int64(len(buf)))
		at := done // moving toward the front: first piece first
		if m.To > m.From {
			at = m.N - done - k
		}
		if err := readAt(buf[:k], m.From+at); err != nil {
			return err
		}
		if err := writeAt(buf[:k], m.To+at); err != nil {
			return err
		}
		done += k
	}
	return nil
}
