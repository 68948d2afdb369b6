package pfs

// SerialFile adapts a pfs File to a plain sequential-error interface (the
// shape of os.File's random-access subset) while tracking virtual time
// internally. The serial netCDF library runs on top of it, which is how the
// paper's "serial netCDF through one process" baseline gets timed under the
// same storage model as the parallel library. A transient fault is resumed
// inside the request (File.request), as for every other caller; an error
// that comes back is permanent.
type SerialFile struct {
	f   *File
	now float64
}

// NewSerialFile wraps f with an internal clock starting at t.
func NewSerialFile(f *File, t float64) *SerialFile {
	return &SerialFile{f: f, now: t}
}

// ReadAt implements io.ReaderAt against the simulated store. Reads beyond
// EOF zero-fill, matching the zero-fill semantics netCDF relies on.
func (s *SerialFile) ReadAt(p []byte, off int64) (int, error) {
	var err error
	if s.now, err = s.f.ReadAt(s.now, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt against the simulated store.
func (s *SerialFile) WriteAt(p []byte, off int64) (int, error) {
	var err error
	if s.now, err = s.f.WriteAt(s.now, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Size returns the file size.
func (s *SerialFile) Size() (int64, error) { return s.f.Size(), nil }

// Truncate resizes the file.
func (s *SerialFile) Truncate(n int64) error {
	s.f.Truncate(n)
	return nil
}

// Sync flushes, advancing the clock past all pending server work.
func (s *SerialFile) Sync() error {
	s.now = s.f.Sync(s.now)
	return nil
}

// Close is a no-op for the simulated store.
func (s *SerialFile) Close() error { return nil }

// Clock returns the handle's current virtual time.
func (s *SerialFile) Clock() float64 { return s.now }

// SetClock resets the handle's virtual time (benchmark phase boundaries).
func (s *SerialFile) SetClock(t float64) { s.now = t }
