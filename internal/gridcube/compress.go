package gridcube

import (
	"encoding/binary"
	"slices"

	"rankcube/internal/errs"
	"rankcube/internal/table"
)

// Cell-list compression (thesis §3.6.3): tids within a cell are stored
// ascending, so the list compresses well as varint-encoded deltas ("store a
// list of tid difference instead of the actual numbers... it may be
// possible to store them using less than the standard 32 bits"). Bids ride
// along as varints of their delta from the cell's pseudo-block base, which
// is small because a cell only contains blocks of one pseudo block.
//
// Compression changes the pages a cell occupies (fewer blocks to read per
// ranked query) at the price of decode work; the ext.idlist experiment
// quantifies the trade-off.

// appendEntries appends the delta encoding of a cell's entry list to buf.
func appendEntries(buf []byte, entries []Entry) []byte {
	buf = slices.Grow(buf, len(entries)*3)
	var tmp [binary.MaxVarintLen64]byte
	prevTID := int64(0)
	for _, e := range entries {
		n := binary.PutUvarint(tmp[:], uint64(int64(e.TID)-prevTID))
		buf = append(buf, tmp[:n]...)
		prevTID = int64(e.TID)
		n = binary.PutUvarint(tmp[:], uint64(e.BID))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

// decodeEntries reverses appendEntries into dst (reused when capacity
// allows). Bytes that do not hold n entries abort the query with a typed
// errs.ErrPageCorrupt.
func decodeEntries(buf []byte, n int, dst []Entry) []Entry {
	r := newEntryReader(buf, n)
	if cap(dst) < n {
		dst = make([]Entry, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.next()
	}
	return dst
}

// decodeBlock appends to dst the tids of the cell's n entries that lie in
// base block bid, ascending, without materializing the entries: a compressed
// cell stays tid-major (ordering it by bid would cost the delta code its
// small deltas), so one block's tuples are filtered out while decoding.
func decodeBlock(buf []byte, n int, bid BID, dst []table.TID) []table.TID {
	r := newEntryReader(buf, n)
	for i := 0; i < n; i++ {
		if en := r.next(); en.BID == bid {
			dst = append(dst, en.TID)
		}
	}
	return dst
}

// entryReader walks an encoded cell list entry by entry.
type entryReader struct {
	buf []byte
	pos int
	tid int64
}

// newEntryReader rejects an entry count the bytes cannot hold (an entry is
// at least two bytes) before anything is sized by it.
func newEntryReader(buf []byte, n int) entryReader {
	if n < 0 || n > len(buf)/2 {
		errs.Abortf(errs.ErrPageCorrupt, "gridcube: cell list of %d bytes cannot hold %d entries", len(buf), n)
	}
	return entryReader{buf: buf}
}

func (r *entryReader) next() Entry {
	r.tid += int64(r.uvarint())
	return Entry{TID: table.TID(r.tid), BID: BID(r.uvarint())}
}

// uvarint reads the next varint; a truncated or overflowing one is a corrupt
// page.
func (r *entryReader) uvarint() uint64 {
	v, w := binary.Uvarint(r.buf[r.pos:])
	if w <= 0 {
		errs.Abortf(errs.ErrPageCorrupt, "gridcube: cell list varint at byte %d truncated or overflowing", r.pos)
	}
	r.pos += w
	return v
}
