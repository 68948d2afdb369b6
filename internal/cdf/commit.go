package cdf

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Crash-consistent header commit support.
//
// An in-place header rewrite cannot be atomic: a crash mid-write leaves a
// torn header. The commit protocol therefore journals the new header image
// past the end of the data before touching the header region:
//
//  1. write [image][trailer] at EOF (the journal);
//  2. invalidate the in-place magic (zero the first 4 bytes);
//  3. write the new header body (bytes 4..);
//  4. publish: write the magic (bytes 0..4) last.
//
// A crash at any byte leaves one of two states: the old header intact
// (steps 1 and earlier — a torn journal has no valid trailer and is
// ignored), or an unreadable in-place header plus a complete journal from
// which the new header is recovered. Trailing journal bytes after a
// successful commit are legal — CheckLayout explicitly tolerates files
// larger than the header declares — and are overwritten harmlessly by
// later record appends.
//
// The trailer sits at the very end so it can be found from the file size
// alone: [imageLen 8B BE][crc32(image) 4B BE][magic "PNCJ" 4B].

// JournalMagic terminates a valid commit journal.
const JournalMagic = "PNCJ"

// JournalTrailerSize is the byte size of the journal trailer.
const JournalTrailerSize = 16

// EncodeJournal wraps a header image in the commit-journal envelope to be
// written at EOF.
func EncodeJournal(image []byte) []byte {
	out := make([]byte, 0, len(image)+JournalTrailerSize)
	out = append(out, image...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(image)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(image))
	out = append(out, JournalMagic...)
	return out
}

// ParseJournalTrailer inspects the final JournalTrailerSize bytes of a file
// and returns the journaled image length and checksum. ok is false when no
// journal terminates the file (wrong magic or nonsensical length).
func ParseJournalTrailer(trailer []byte) (imageLen int64, crc uint32, ok bool) {
	if len(trailer) != JournalTrailerSize {
		return 0, 0, false
	}
	if string(trailer[12:]) != JournalMagic {
		return 0, 0, false
	}
	imageLen = int64(binary.BigEndian.Uint64(trailer[:8]))
	crc = binary.BigEndian.Uint32(trailer[8:12])
	if imageLen <= 0 {
		return 0, 0, false
	}
	return imageLen, crc, true
}

// VerifyJournalImage reports whether image matches the trailer checksum.
func VerifyJournalImage(image []byte, crc uint32) bool {
	return crc32.ChecksumIEEE(image) == crc
}

// RecoverJournal scans a whole-file image for a commit journal at its tail
// and returns the journaled header image, or nil when none is present or it
// fails verification.
func RecoverJournal(img []byte) []byte {
	return readJournal(int64(len(img)), func(buf []byte, off int64) error {
		copy(buf, img[off:])
		return nil
	})
}

// ReadHeader fetches and decodes the header of a file of the given size
// through read, which fills buf from file offset off (the package performs
// no I/O of its own). It probes 64 KiB and quadruples the probe for as long
// as Decode reports ErrTruncated. Any other failure cannot be cured by more
// bytes — as a header still truncated with the whole file read cannot — and
// is settled by the commit journal at the file's tail: a torn in-place
// header is recovered from it (recovered is true), otherwise the decode
// error stands.
//
// blob is the image h was decoded from. It is nil only when read failed; on
// a decode error it is the last probe, so that a caller's peers can decode
// it to the same error.
func ReadHeader(size int64, read func(buf []byte, off int64) error) (h *Header, blob []byte, recovered bool, err error) {
	for probe := int64(64 << 10); ; probe *= 4 {
		blob = make([]byte, min(probe, size))
		if rerr := read(blob, 0); rerr != nil {
			return nil, nil, false, rerr
		}
		if h, err = Decode(blob); err == nil {
			return h, blob, false, nil
		}
		if probe >= size || !errors.Is(err, ErrTruncated) {
			break
		}
	}
	if img := readJournal(size, read); img != nil {
		if jh, jerr := Decode(img); jerr == nil {
			return jh, img, true, nil
		}
	}
	return nil, blob, false, err
}

// readJournal reads and verifies the commit journal terminating the file,
// returning the journaled header image or nil.
func readJournal(size int64, read func(buf []byte, off int64) error) []byte {
	if size < JournalTrailerSize {
		return nil
	}
	tr := make([]byte, JournalTrailerSize)
	if read(tr, size-JournalTrailerSize) != nil {
		return nil
	}
	n, crc, ok := ParseJournalTrailer(tr)
	if !ok || n > size-JournalTrailerSize {
		return nil
	}
	img := make([]byte, n)
	if read(img, size-JournalTrailerSize-n) != nil {
		return nil
	}
	if !VerifyJournalImage(img, crc) {
		return nil
	}
	return img
}

// MaxRecsForSize returns the largest record count the file size can hold —
// the read-time clamp against a NumRecs field that is ahead of the data
// actually on disk (a torn numrecs write, or a writer that died between
// growing NumRecs and flushing the records).
func (h *Header) MaxRecsForSize(fileSize int64) int64 {
	recSize := h.RecSize()
	if h.NumRecVars() == 0 || recSize <= 0 {
		return h.NumRecs
	}
	avail := fileSize - h.RecordStart()
	if avail <= 0 {
		return 0
	}
	return avail / recSize
}
