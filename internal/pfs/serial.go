package pfs

import (
	"pnetcdf/internal/fault"
	"pnetcdf/internal/iostat"
)

// SerialFile adapts a pfs File to a plain sequential-error interface (the
// shape of os.File's random-access subset) while tracking virtual time
// internally. The serial netCDF library runs on top of it, which is how the
// paper's "serial netCDF through one process" baseline gets timed under the
// same storage model as the parallel library.
//
// Transient faults injected at the pfs layer are retried here under
// fault.DefaultRetryPolicy (the serial library has no MPI-IO layer to do
// it); permanent errors propagate to the caller.
type SerialFile struct {
	f     *File
	now   float64
	retry fault.RetryPolicy
}

// NewSerialFile wraps f with an internal clock starting at t.
func NewSerialFile(f *File, t float64) *SerialFile {
	return &SerialFile{f: f, now: t, retry: fault.DefaultRetryPolicy()}
}

// ReadAt implements io.ReaderAt against the simulated store. Reads beyond
// EOF zero-fill, matching the zero-fill semantics netCDF relies on.
func (s *SerialFile) ReadAt(p []byte, off int64) (int, error) {
	err := s.do(func(t float64) (float64, error) { return s.f.ReadAt(t, p, off) })
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt against the simulated store.
func (s *SerialFile) WriteAt(p []byte, off int64) (int, error) {
	err := s.do(func(t float64) (float64, error) { return s.f.WriteAt(t, p, off) })
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// do runs op under the retry policy, advancing the internal clock through
// backoff waits and recording retry effort in the handle's iostat.
func (s *SerialFile) do(op func(t float64) (float64, error)) error {
	done, retries, backoff, err := s.retry.Do(s.now, op)
	s.now = done
	if retries > 0 {
		s.f.stats.Add(iostat.PfsRetries, int64(retries))
		s.f.stats.AddTime(iostat.PfsBackoffTimeNs, backoff)
	}
	return err
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
