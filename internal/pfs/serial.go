package pfs

// serialFile adapts a pfs File to a plain sequential-error interface (the
// shape of os.File's random-access subset) while tracking virtual time
// internally. The serial netCDF library runs on top of it, which is how the
// paper's "serial netCDF through one process" baseline gets timed under the
// same storage model as the parallel library. A transient fault is resumed
// inside the request (File.request), as for every other caller; an error
// that comes back is permanent.
type serialFile struct {
	f   *File
	now float64
}

// NewSerialFile wraps f with an internal clock starting at t.
func NewSerialFile(f *File, t float64) *serialFile {
	return &serialFile{f: f, now: t}
}

// ReadAt implements io.ReaderAt against the simulated store. Reads beyond
// EOF zero-fill, matching the zero-fill semantics netCDF relies on.
func (s *serialFile) ReadAt(p []byte, off int64) (int, error) {
	var err error
	if s.now, err = s.f.ReadAt(s.now, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt against the simulated store.
func (s *serialFile) WriteAt(p []byte, off int64) (int, error) {
	var err error
	if s.now, err = s.f.WriteAt(s.now, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Size returns the file size.
func (s *serialFile) Size() (int64, error) { return s.f.Size(), nil }

// Truncate resizes the file.
func (s *serialFile) Truncate(n int64) error {
	s.f.Truncate(n)
	return nil
}

// Sync flushes, advancing the clock past all pending server work.
func (s *serialFile) Sync() error {
	s.now = s.f.Sync(s.now)
	return nil
}

// Close is a no-op for the simulated store.
func (s *serialFile) Close() error { return nil }

// Clock returns the handle's current virtual time.
func (s *serialFile) Clock() float64 { return s.now }

// SetClock resets the handle's virtual time (benchmark phase boundaries).
func (s *serialFile) SetClock(t float64) { s.now = t }
