package cdf

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Crash-consistent header commit support: CommitHeader writes a header,
// ReadHeader finds it again, and both libraries (internal/netcdf and
// internal/core) go through this one pair.
//
// An in-place header rewrite cannot be atomic: a crash mid-write leaves a
// torn header. What protects against that depends on whether there is an old
// header to lose.
//
// First commit — the file holds nothing (size 0: Create truncated it and no
// header was ever published). There is no old header to journal and no magic
// to invalidate:
//
//  1. extend the file, sparsely, to the size the header declares;
//  2. write the whole image from byte 0 with its magic zeroed — the zeros
//     land on zeros, and the request starts on a block boundary, so the file
//     system has no head block to read back;
//  3. publish: write the magic (bytes 0..4) last.
//
// A crash leaves either a file without a magic and without a journal — the
// creation never completed, nothing opens it, exactly what Create left — or
// the complete new header over a file of the declared size. The extension
// comes first so that a valid magic never sits on a file shorter than its
// header says.
//
// Recommit — the file holds bytes (Redef→EndDef, a data-mode attribute
// overwrite, the open-time repair, the serial library's Sync). The new image
// is journaled past the end of the data before the header region is touched:
//
//  1. write [image][trailer] at EOF (the journal);
//  2. invalidate the in-place magic (zero the first 4 bytes);
//  3. write the new header body (bytes 4..);
//  4. publish: write the magic (bytes 0..4) last;
//  5. cut the journal off: set the file's size back to where the journal
//     began, so the file ends where its header says, the next recommit parks
//     its journal at the same place rather than past this one, and no
//     journal byte can masquerade as record data once the record section
//     grows over the region. (Should the file have grown past the journal
//     meanwhile, the journal is overwritten with zeros instead: nothing
//     behind it may be cut off.)
//
// A crash at any byte leaves one of two states: the old header intact
// (steps 1 and earlier — a torn journal has no valid trailer and is
// ignored), or an unreadable in-place header plus a complete journal from
// which the new header is recovered. A crash before the cut is harmless: the
// new header is already live, and trailing bytes are legal — CheckLayout
// tolerates files larger than the header declares.
//
// The trailer sits at the very end so it can be found from the file size
// alone: [imageLen 8B BE][crc32(image) 4B BE][magic "PNCJ" 4B].

// CommitFile is the file CommitHeader writes through; the package performs
// no I/O of its own.
type CommitFile interface {
	Size() (int64, error)
	// WriteAt writes all of p at off, bypassing any cache whose write-back
	// order is not the call order.
	WriteAt(p []byte, off int64) error
	// SetSize sets the file's length without moving data; bytes past the old
	// end read as zeros.
	SetSize(size int64) error
}

// CommitHeader publishes img, a header's encoding, crash-consistently (see
// the protocol above; which of its two shapes runs is decided by the file's
// size alone). declaredEnd is the file size that header declares
// (Header.FileSize): a first commit extends the file to it, a recommit parks
// its journal past it — past everything the file holds or declares, so the
// journal never sits where an unwritten variable would later be read as
// zero-fill. written is the number of bytes handed to f.WriteAt by the steps
// that completed, also when err is not nil. img is the caller's again when
// CommitHeader returns, but a first commit zeroes its magic while it runs.
func CommitHeader(f CommitFile, img []byte, declaredEnd int64) (written int64, err error) {
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	type step struct {
		p   []byte
		off int64
	}
	// write runs steps in order, counting the bytes of those that complete.
	write := func(steps ...step) error {
		for _, s := range steps {
			if err := f.WriteAt(s.p, s.off); err != nil {
				return err
			}
			written += int64(len(s.p))
		}
		return nil
	}
	end := max(declaredEnd, int64(len(img)))
	if size == 0 {
		if err := f.SetSize(end); err != nil {
			return 0, err
		}
		magic := [4]byte(img)
		clear(img[:4])
		err = write(step{img, 0})
		copy(img, magic[:])
		if err == nil {
			err = write(step{img[:4], 0})
		}
		return written, err
	}
	journal, jOff := EncodeJournal(img), max(size, end)
	if err = write(step{journal, jOff}, step{make([]byte, 4), 0}, step{img[4:], 4}, step{img[:4], 0}); err != nil {
		return written, err
	}
	if size, err = f.Size(); err != nil {
		return written, err
	}
	if size != jOff+int64(len(journal)) {
		// The file grew past the journal: erase it where it lies.
		err = write(step{make([]byte, len(journal)), jOff})
		return written, err
	}
	return written, f.SetSize(jOff)
}

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
// no I/O of its own). It holds a prefix of the file and, for as long as
// Decode reports ErrTruncated, extends it — reading only the missing tail,
// so no byte is fetched twice — to the next step of 64 KiB × 4ⁿ or to the
// end of the file.
//
// A truncated decode that got as far as a variable knows more, and the
// extension uses two things it learned. First, where the header probably
// ends: the declared variable count and the bytes the complete variables
// took predict it (predictEnd), and the extension reaches past the step to
// the prediction when that lies further, but never past the step after it —
// a large header then costs the first probe and one request, not every step
// up to it, while a few fat variables in front of thin ones cannot stretch a
// request more than one step. Second, where it cannot end: data starts no
// earlier than the header ends, so the smallest begin read so far bounds the
// header, and the extension stops there when that is short of where it would
// reach. The bound only ever trims: a begin inside the bytes already held is
// ignored, and one past the reach or the file changes nothing. A begin that
// lies — it points into the header, which CheckLayout reports — costs the one
// extension it cut short, after which it is inside the bytes held. After
// every extension the step moves past the bytes held.
//
// So the bytes read are the prefix held at the end; no extension goes past
// the smallest begin beyond the bytes it extends; and every extension that
// is not trimmed reaches at least the step it replaces and at most the next,
// so, a lying begin aside, there are never more requests than the steps a
// probe without prediction or bound would make, and never more than four
// times its bytes.
//
// Any failure other than ErrTruncated cannot be cured by more bytes — as a
// header still truncated with the whole file read cannot — and is settled by
// the commit journal at the file's tail: a torn in-place header is recovered
// from it (recovered is true), otherwise the decode error stands. A
// recovered header's record count is clamped to what size can hold.
//
// blob is the image h was decoded from, exactly: the header's own bytes or
// the journaled image, its numrecs clamped with h's. It is nil only when
// read failed; on a decode error it is everything read from the front of
// the file, so that a caller's peers can decode it to the same error.
func ReadHeader(size int64, read func(buf []byte, off int64) error) (h *Header, blob []byte, recovered bool, err error) {
	bound, predicted := int64(0), int64(0)
	for step := int64(64 << 10); ; {
		held := int64(len(blob))
		end := min(max(step, min(predicted, 4*step)), size)
		if held < bound && bound < end {
			end = bound
		}
		grown := make([]byte, end)
		copy(grown, blob)
		if rerr := read(grown[held:], held); rerr != nil {
			return nil, nil, false, rerr
		}
		blob = grown
		var r headerReader
		if h, err = r.decode(blob); err == nil {
			return h, blob[:r.pos], false, nil
		}
		if end >= size || !errors.Is(err, ErrTruncated) {
			break
		}
		bound, predicted = r.minBegin, r.predictEnd()
		for step <= end {
			step *= 4
		}
	}
	if img := readJournal(size, read); img != nil {
		if jh, jerr := Decode(img); jerr == nil {
			// The journaled (new) header may declare records lost with the
			// crash: clamp to what the file holds, in the image too, so a
			// peer decoding it gets the same count.
			if max := jh.MaxRecsForSize(size); jh.NumRecs > max {
				jh.NumRecs = max
				copy(img[NumRecsOffset:], jh.EncodeNumRecs())
			}
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
