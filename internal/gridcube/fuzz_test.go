package gridcube

import (
	"errors"
	"slices"
	"testing"

	"rankcube/internal/errs"
	"rankcube/internal/table"
)

// corruptOr runs a decoder and returns the typed ErrPageCorrupt abort it
// ended with, if any; every other panic is the failure being hunted and
// propagates.
func corruptOr(t *testing.T, decode func()) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			abort, ok := errs.IsAbort(r)
			if !ok || !errors.Is(abort, errs.ErrPageCorrupt) {
				panic(r)
			}
			err = abort
		}
	}()
	decode()
	return nil
}

// FuzzDecodeEntries feeds arbitrary bytes and entry counts to the two cell
// decoders: each returns a value or aborts with a typed ErrPageCorrupt, never
// a raw panic, they accept the same inputs, and decodeBlock over every bid
// reproduces decodeEntries' partition of the cell.
func FuzzDecodeEntries(f *testing.F) {
	cell := []Entry{{TID: 3, BID: 40}, {TID: 9, BID: 41}, {TID: 10, BID: 40}, {TID: 700, BID: 52}, {TID: 1 << 20, BID: 41}}
	enc := appendEntries(nil, cell)
	f.Add(enc, len(cell))
	f.Add(enc, len(cell)+1)            // one entry more than the bytes hold
	f.Add(enc[:len(enc)-1], len(cell)) // last varint truncated
	f.Add(enc, -1)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x80}, 1)                                                          // continuation bit, nothing after
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0}, 1) // 64-bit overflow
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		var entries []Entry
		err := corruptOr(t, func() { entries = decodeEntries(data, n, nil) })
		byBID := make(map[BID][]table.TID)
		for _, en := range entries {
			byBID[en.BID] = append(byBID[en.BID], en.TID)
		}
		if _, held := byBID[-7]; !held {
			byBID[-7] = nil // a block the cell does not hold decodes to nothing
		}
		for bid, want := range byBID {
			var got []table.TID
			blockErr := corruptOr(t, func() { got = decodeBlock(data, n, bid, nil) })
			if (blockErr == nil) != (err == nil) {
				t.Fatalf("decodeEntries: %v, decodeBlock(%d): %v", err, bid, blockErr)
			}
			if err == nil && !slices.Equal(got, want) {
				t.Fatalf("decodeBlock(%d) = %v, decodeEntries has %v", bid, got, want)
			}
		}
	})
}
