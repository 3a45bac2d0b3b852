package rtree

import (
	"fmt"

	"rankcube/internal/hindex"
	"rankcube/internal/table"
)

// Insert adds tuple tid at the full-width point and returns the set of
// tuples whose paths changed (the thesis' update set U, §4.2.5): the
// inserted tuple plus, when node splitting occurred, every tuple under the
// split nodes. Signature maintenance consumes this set.
func (tr *Tree) Insert(tid table.TID, point []float64) []table.TID {
	pt := make([]float64, tr.d)
	for j, dim := range tr.dims {
		pt[j] = point[dim]
	}
	r := rect{lo: pt, hi: append([]float64(nil), pt...)}

	affected := map[table.TID]struct{}{tid: {}}

	if tr.root == hindex.InvalidNode {
		nd := &node{leaf: true, parent: hindex.InvalidNode}
		nd.rects = append(nd.rects, r)
		nd.tids = append(nd.tids, tid)
		tr.root = tr.addNode(nd)
		tr.height = 1
		tr.leafOf[tid] = tr.root
		return keys(affected)
	}

	leaf := tr.chooseLeaf(tr.root, r)
	nd := tr.nodes[leaf]
	nd.rects = append(nd.rects, r)
	nd.tids = append(nd.tids, tid)
	tr.leafOf[tid] = leaf

	tr.handleOverflow(leaf, affected)
	tr.adjustUp(leaf)
	return keys(affected)
}

// chooseLeaf descends from id picking the entry whose MBR needs least
// enlargement to include r (ties by smaller area), Guttman's ChooseLeaf.
func (tr *Tree) chooseLeaf(id hindex.NodeID, r rect) hindex.NodeID {
	for {
		nd := tr.nodes[id]
		if nd.leaf {
			return id
		}
		best := -1
		bestEnl, bestArea := 0.0, 0.0
		for i := range nd.rects {
			tmp := nd.rects[i].clone()
			enl := tmp.enlarge(r)
			area := nd.rects[i].area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		id = nd.kids[best]
	}
}

// handleOverflow splits id if it exceeds the fanout, propagating upward.
func (tr *Tree) handleOverflow(id hindex.NodeID, affected map[table.TID]struct{}) {
	for id != hindex.InvalidNode {
		nd := tr.nodes[id]
		if nd.numEntries() <= tr.fanout {
			return
		}
		newID := tr.splitNode(id)
		tr.collectSubtree(id, affected)
		tr.collectSubtree(newID, affected)

		parent := tr.nodes[id].parent
		if parent == hindex.InvalidNode {
			// Root split: grow a new root.
			root := &node{parent: hindex.InvalidNode}
			root.rects = append(root.rects, tr.nodes[id].mbr(), tr.nodes[newID].mbr())
			root.kids = append(root.kids, id, newID)
			rootID := tr.addNode(root)
			tr.nodes[id].parent = rootID
			tr.nodes[id].posInParent = 0
			tr.nodes[newID].parent = rootID
			tr.nodes[newID].posInParent = 1
			tr.root = rootID
			tr.height++
			return
		}
		p := tr.nodes[parent]
		p.rects[tr.nodes[id].posInParent] = tr.nodes[id].mbr()
		p.rects = append(p.rects, tr.nodes[newID].mbr())
		p.kids = append(p.kids, newID)
		tr.nodes[newID].parent = parent
		tr.nodes[newID].posInParent = len(p.kids) - 1
		id = parent
	}
}

// splitNode performs Guttman's quadratic split of id, returning the new
// sibling's id. The original node retains one group (so its slot in the
// parent is unchanged); the sibling must be linked by the caller.
func (tr *Tree) splitNode(id hindex.NodeID) hindex.NodeID {
	nd := tr.nodes[id]
	n := nd.numEntries()

	// PickSeeds: the pair wasting the most area.
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			u := union(nd.rects[i], nd.rects[j])
			d := u.area() - nd.rects[i].area() - nd.rects[j].area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}

	groupA := []int{s1}
	groupB := []int{s2}
	boxA := nd.rects[s1].clone()
	boxB := nd.rects[s2].clone()
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
			rest = nil
			break
		}
		if len(groupB)+len(rest) == tr.minFill {
			groupB = append(groupB, rest...)
			rest = nil
			break
		}
		bestIdx, bestDiff := 0, -1.0
		var bestToA bool
		for k, i := range rest {
			ta := boxA.clone()
			tb := boxB.clone()
			dA := ta.enlarge(nd.rects[i])
			dB := tb.enlarge(nd.rects[i])
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
			boxA.enlarge(nd.rects[i])
		} else {
			groupB = append(groupB, i)
			boxB.enlarge(nd.rects[i])
		}
	}

	sib := &node{leaf: nd.leaf, parent: hindex.InvalidNode}
	newID := tr.addNode(sib)
	sib = tr.nodes[newID]

	take := func(idxs []int, dst *node) {
		for _, i := range idxs {
			dst.rects = append(dst.rects, nd.rects[i])
			if nd.leaf {
				dst.tids = append(dst.tids, nd.tids[i])
			} else {
				dst.kids = append(dst.kids, nd.kids[i])
			}
		}
	}
	keep := &node{leaf: nd.leaf}
	take(groupA, keep)
	take(groupB, sib)

	nd.rects = keep.rects
	nd.tids = keep.tids
	nd.kids = keep.kids

	tr.rewire(id)
	tr.rewire(newID)
	return newID
}

// rewire refreshes child back-links (or leafOf entries) after entries of id
// were reordered.
func (tr *Tree) rewire(id hindex.NodeID) {
	nd := tr.nodes[id]
	if nd.leaf {
		for _, tid := range nd.tids {
			tr.leafOf[tid] = id
		}
		return
	}
	for pos, kid := range nd.kids {
		tr.nodes[kid].parent = id
		tr.nodes[kid].posInParent = pos
	}
}

// adjustUp refreshes ancestor MBR entries from id to the root.
func (tr *Tree) adjustUp(id hindex.NodeID) {
	for {
		nd := tr.nodes[id]
		if nd.parent == hindex.InvalidNode {
			return
		}
		p := tr.nodes[nd.parent]
		p.rects[nd.posInParent] = nd.mbr()
		id = nd.parent
	}
}

// collectSubtree adds every tuple under id to set.
func (tr *Tree) collectSubtree(id hindex.NodeID, set map[table.TID]struct{}) {
	nd := tr.nodes[id]
	if nd.leaf {
		for _, tid := range nd.tids {
			set[tid] = struct{}{}
		}
		return
	}
	for _, kid := range nd.kids {
		tr.collectSubtree(kid, set)
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
	leaf, ok := tr.leafOf[tid]
	if !ok {
		return nil, false
	}
	nd := tr.nodes[leaf]
	slot := -1
	for i, t := range nd.tids {
		if t == tid {
			slot = i
			break
		}
	}
	if slot < 0 {
		//lint:invariant leafOf and leaf contents are updated together; a miss is tree corruption
		panic(fmt.Sprintf("rtree: leafOf inconsistent for tid %d", tid))
	}
	affected := map[table.TID]struct{}{}
	last := len(nd.tids) - 1
	if slot != last {
		nd.tids[slot] = nd.tids[last]
		nd.rects[slot] = nd.rects[last]
		affected[nd.tids[slot]] = struct{}{}
	}
	nd.tids = nd.tids[:last]
	nd.rects = nd.rects[:last]
	delete(tr.leafOf, tid)

	if len(nd.tids) == 0 {
		tr.unlink(leaf, affected)
	} else {
		tr.adjustUp(leaf)
	}
	return keys(affected), true
}

// unlink removes the now-empty node id from its parent, cascading.
func (tr *Tree) unlink(id hindex.NodeID, affected map[table.TID]struct{}) {
	nd := tr.nodes[id]
	parent := nd.parent
	if parent == hindex.InvalidNode {
		tr.root = hindex.InvalidNode
		tr.height = 0
		return
	}
	p := tr.nodes[parent]
	pos := nd.posInParent
	last := len(p.kids) - 1
	if pos != last {
		p.kids[pos] = p.kids[last]
		p.rects[pos] = p.rects[last]
		moved := tr.nodes[p.kids[pos]]
		moved.posInParent = pos
		tr.collectSubtree(p.kids[pos], affected)
	}
	p.kids = p.kids[:last]
	p.rects = p.rects[:last]
	if len(p.kids) == 0 {
		tr.unlink(parent, affected)
		return
	}
	// Collapse a root with a single child to keep height tight. Every path
	// that remains loses its first position.
	if parent == tr.root && len(p.kids) == 1 {
		tr.root = p.kids[0]
		tr.nodes[tr.root].parent = hindex.InvalidNode
		tr.nodes[tr.root].posInParent = 0
		tr.height--
		tr.collectSubtree(tr.root, affected)
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
