package span

// Merge folds one run's per-rank recorders, indexed by rank, into a single
// trace ordered by rank, then begin order (ID), and sums the spans the
// recorders dropped. A nil recorder (a rank that recorded nothing)
// contributes an empty trace. It is read once the ranks have returned, so a
// run a rank death cut short keeps every rank's spans up to its end.
// Timestamps are NOT adjusted for cross-rank clock skew — the analyses in
// critical.go deliberately use only within-rank durations.
func Merge(ranks []*Recorder) ([]Span, int64) {
	var merged []Span
	var dropped int64
	for _, r := range ranks {
		merged = append(merged, r.Spans()...)
		dropped += r.Dropped()
	}
	return merged, dropped
}
