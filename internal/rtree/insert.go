package rtree

import (
	"rankcube/internal/hindex"
	"rankcube/internal/table"
)

// Insert adds tuple tid at the full-width point and returns the set of
// tuples whose paths changed (the thesis' update set U, §4.2.5): the
// inserted tuple plus, when node splitting occurred, every tuple under the
// split nodes. Signature maintenance consumes this set.
func (tr *Tree) Insert(tid table.TID, point []float64) []table.TID {
	pt := make([]float64, len(tr.Dims()))
	for j, dim := range tr.Dims() {
		pt[j] = point[dim]
	}
	affected := map[table.TID]struct{}{tid: {}}

	leaf := tr.Root()
	if leaf == hindex.InvalidNode {
		leaf = tr.addNode(true, tr.MaxFanout()+1)
		tr.SetRoot(leaf, 1)
	} else {
		leaf = tr.chooseLeaf(leaf, rect{pt, pt})
	}
	tr.AppendTuple(leaf, tid, pt)
	tr.handleOverflow(leaf, affected)
	tr.adjustUp(leaf)
	return keys(affected)
}

// entry views one entry of node id as a rect.
func (tr *Tree) entry(id hindex.NodeID, slot int) rect {
	lo, hi := tr.Rect(id, slot)
	return rect{lo, hi}
}

// chooseLeaf descends from id picking the entry whose MBR needs least
// enlargement to include r (ties by smaller area), Guttman's ChooseLeaf.
func (tr *Tree) chooseLeaf(id hindex.NodeID, r rect) hindex.NodeID {
	for !tr.IsLeaf(id) {
		best := -1
		bestEnl, bestArea := 0.0, 0.0
		for i := 0; i < tr.NumChildren(id); i++ {
			e := tr.entry(id, i)
			area := e.area()
			enl := e.unionArea(r) - area
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		id = tr.ChildAt(id, best)
	}
	return id
}

// handleOverflow splits id if it exceeds the fanout, propagating upward.
func (tr *Tree) handleOverflow(id hindex.NodeID, affected map[table.TID]struct{}) {
	for id != hindex.InvalidNode && tr.NumChildren(id) > tr.MaxFanout() {
		sib := tr.splitNode(id)
		tr.collectSubtree(id, affected)
		tr.collectSubtree(sib, affected)

		parent, _ := tr.Parent(id)
		if parent == hindex.InvalidNode {
			// Root split: grow a new root.
			root := tr.addNode(false, tr.MaxFanout()+1)
			tr.adopt(root, id)
			tr.adopt(root, sib)
			tr.SetRoot(root, tr.Height()+1)
			return
		}
		tr.refit(id)
		tr.adopt(parent, sib)
		id = parent
	}
}

// splitNode performs Guttman's quadratic split of id, returning the new
// sibling's id. The original node retains one group (so its slot in the
// parent is unchanged); the sibling must be linked by the caller.
func (tr *Tree) splitNode(id hindex.NodeID) hindex.NodeID {
	n := tr.NumChildren(id)

	// PickSeeds: the pair wasting the most area.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		ei := tr.entry(id, i)
		for j := i + 1; j < n; j++ {
			ej := tr.entry(id, j)
			d := ei.unionArea(ej) - ei.area() - ej.area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}

	groupA := []int{s1}
	groupB := []int{s2}
	boxA, boxB := tr.entry(id, s1).clone(), tr.entry(id, s2).clone()
	rest := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != s1 && i != s2 {
			rest = append(rest, i)
		}
	}

	// PickNext: assign by maximal preference difference, honoring minFill.
	for len(rest) > 0 {
		if len(groupA)+len(rest) == tr.minFill {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) == tr.minFill {
			groupB = append(groupB, rest...)
			break
		}
		bestIdx, bestDiff := 0, -1.0
		var bestToA bool
		areaA, areaB := boxA.area(), boxB.area()
		for k, i := range rest {
			e := tr.entry(id, i)
			dA := boxA.unionArea(e) - areaA
			dB := boxB.unionArea(e) - areaB
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff = diff
				bestIdx = k
				bestToA = dA < dB || (dA == dB && len(groupA) < len(groupB))
			}
		}
		i := rest[bestIdx]
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
		if bestToA {
			groupA = append(groupA, i)
			boxA.grow(tr.entry(id, i))
		} else {
			groupB = append(groupB, i)
			boxB.grow(tr.entry(id, i))
		}
	}

	sib := tr.addNode(tr.IsLeaf(id), tr.MaxFanout()+1)
	tr.Deal(id, groupA, sib, groupB)
	return sib
}

// refit sets id's entry in its parent to id's MBR.
func (tr *Tree) refit(id hindex.NodeID) {
	parent, pos := tr.Parent(id)
	lo, hi := tr.Rect(parent, pos)
	tr.MBR(id, lo, hi)
}

// adjustUp refreshes ancestor MBR entries from id to the root.
func (tr *Tree) adjustUp(id hindex.NodeID) {
	for id != tr.Root() {
		tr.refit(id)
		id, _ = tr.Parent(id)
	}
}

// collectSubtree adds every tuple under id to set.
func (tr *Tree) collectSubtree(id hindex.NodeID, set map[table.TID]struct{}) {
	leaf := tr.IsLeaf(id)
	for slot := 0; slot < tr.NumChildren(id); slot++ {
		if leaf {
			set[tr.TupleAt(id, slot)] = struct{}{}
		} else {
			tr.collectSubtree(tr.ChildAt(id, slot), set)
		}
	}
}

// Delete removes tuple tid, returning the set of tuples whose paths changed
// (swap-removal relocates the last entry of the leaf; emptied nodes are
// unlinked, relocating their parent's last entry; a root left with one entry
// collapses into it, shortening every path). The second result is
// false when tid is not present. Underflowed (but non-empty) nodes are left
// in place — a simplification relative to Guttman's CondenseTree that never
// affects correctness, only packing.
func (tr *Tree) Delete(tid table.TID) ([]table.TID, bool) {
	leaf, slot, ok := tr.Locate(tid)
	if !ok {
		return nil, false
	}
	affected := map[table.TID]struct{}{}
	tr.RemoveEntry(leaf, slot)
	if slot < tr.NumChildren(leaf) {
		affected[tr.TupleAt(leaf, slot)] = struct{}{}
	}
	if tr.NumChildren(leaf) == 0 {
		tr.unlink(leaf, affected)
	} else {
		tr.adjustUp(leaf)
	}
	return keys(affected), true
}

// unlink removes the now-empty node id from its parent, cascading.
func (tr *Tree) unlink(id hindex.NodeID, affected map[table.TID]struct{}) {
	parent, pos := tr.Parent(id)
	if parent == hindex.InvalidNode {
		tr.SetRoot(hindex.InvalidNode, 0)
		return
	}
	tr.RemoveEntry(parent, pos)
	n := tr.NumChildren(parent)
	if n == 0 {
		tr.unlink(parent, affected)
		return
	}
	if pos < n { // the last entry took the emptied node's slot
		tr.collectSubtree(tr.ChildAt(parent, pos), affected)
	}
	// Collapse a root with a single child to keep height tight. Every path
	// that remains loses its first position.
	if parent == tr.Root() && n == 1 {
		tr.SetRoot(tr.ChildAt(parent, 0), tr.Height()-1)
		tr.collectSubtree(tr.Root(), affected)
		return
	}
	tr.adjustUp(parent)
}

func keys(set map[table.TID]struct{}) []table.TID {
	out := make([]table.TID, 0, len(set))
	for tid := range set {
		out = append(out, tid)
	}
	return out
}
