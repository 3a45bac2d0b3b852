package sigcube

import (
	"rankcube/internal/bloom"
	"rankcube/internal/core"
	"rankcube/internal/hindex"
	"rankcube/internal/pager"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Lossy signatures (thesis §4.5): instead of the exact bit-tree, a cell
// stores a bloom filter over the SIDs of its marked nodes and tuples.
// Membership tests have false positives but no false negatives, so pruning
// stays sound for internal nodes; tuple-level hits are re-verified against
// the relation by random access ("we need the boolean verification step").
// The trade-off — smaller measure, extra verification I/O — is quantified
// by the ext.bloom experiment.

// bloomCell is one cell's lossy measure.
type bloomCell struct {
	filter *bloom.Filter
	page   pager.PageID
	fanout int
}

// Test implements signature.Tester.
func (bc *bloomCell) Test(path []int) bool {
	if len(path) == 0 {
		return true
	}
	return bc.filter.MayContain(hindex.SID(path, bc.fanout))
}

// loadedBloomCell charges the filter's page once per query view.
type loadedBloomCell struct {
	cell   *bloomCell
	buf    *pager.Buffer
	ctr    *stats.Counters
	loaded bool
}

func (l *loadedBloomCell) Test(path []int) bool {
	if !l.loaded {
		l.buf.Touch(l.cell.page, l.ctr)
		l.loaded = true
	}
	return l.cell.Test(path)
}

// buildBloomCell constructs the lossy measure for one cell from its tuple
// paths: every marked SID (all path prefixes) is inserted.
func (c *Cube) buildBloomCell(paths [][]int) *bloomCell {
	fanout := c.rt.MaxFanout()
	sids := make(map[uint64]struct{})
	for _, p := range paths {
		for i := 1; i <= len(p); i++ {
			sids[hindex.SID(p[:i], fanout)] = struct{}{}
		}
	}
	// The thesis bounds filters at a page (§4.5 builds on §5.3.1's sizing).
	f := bloom.NewOptimal(len(sids), c.store.PageSize()*8, 8)
	for sid := range sids {
		f.Add(sid)
	}
	page := c.store.AppendLogical((f.Bits() + 7) / 8)
	return &bloomCell{filter: f, page: page, fanout: fanout}
}

// addToBloomCell maintains a lossy cell under Alg. 2's update set: every
// prefix SID of each new path joins the filter, and nothing ever leaves it. A
// stale SID costs a false positive, never an answer — tuple hits are verified
// against the relation and a deleted tuple is no longer in the tree to be
// reached — and RebuildStore is what sheds them.
func (c *Cube) addToBloomCell(cb *Cuboid, us []pathUpdate) {
	bc := cb.blooms[us[0].cell]
	for _, u := range us {
		switch {
		case u.new == nil:
		case bc == nil: // the cell's first tuple
			bc = c.buildBloomCell([][]int{u.new})
			cb.blooms[u.cell] = bc
		default:
			for i := 1; i <= len(u.new); i++ {
				bc.filter.Add(hindex.SID(u.new[:i], bc.fanout))
			}
		}
	}
}

// lossyTesterFor assembles the bloom tester for a conjunctive condition, its
// members in ascending dimension order: which filter pages a search charges
// depends on where the conjunction stops. The bool result is false when a
// required cell is absent (no tuple can match).
func (c *Cube) lossyTesterFor(cond core.Cond, ctr *stats.Counters) (signature.Tester, bool) {
	var testers signature.And
	for _, d := range cond.Dims() {
		cb := c.Cuboid([]int{d})
		if cb == nil {
			return nil, false
		}
		key, in := cb.cell(cond)
		bc, ok := cb.blooms[key]
		if !in || !ok {
			return nil, false
		}
		testers = append(testers, &loadedBloomCell{cell: bc, buf: pager.NewBuffer(c.store), ctr: ctr})
	}
	if len(testers) == 0 {
		return signature.True{}, true
	}
	return testers, true
}

// Verifier returns the tuple-level re-verification hook of a lossy cube:
// the bloom measure may pass non-matching tuples, which a random access to
// the relation then rejects, charging the tuple's heap page the first time
// the query touches it (core.HeapFile.Verifier). Exact cubes need none. The
// search (BestFirst) runs it on a tuple it is about to answer with, at its
// pop.
func (c *Cube) Verifier(cond core.Cond, ctr *stats.Counters) func(table.TID) bool {
	if !c.cfg.LossySignatures {
		return nil
	}
	return c.Heap().Verifier(cond, ctr)
}
