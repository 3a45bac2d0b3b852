package signature

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/hindex"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// sigNode is one node of a decoded signature and the path that reaches it.
type sigNode struct {
	path []int
	n    *Node
}

// allNodes lists the nodes of sig depth first, each after its parent.
func allNodes(sig *Node) []sigNode {
	var out []sigNode
	var rec func(path []int, n *Node)
	rec = func(path []int, n *Node) {
		out = append(out, sigNode{path, n})
		for i, k := range n.Kids {
			if k != nil {
				rec(append(path[:len(path):len(path)], i+1), k)
			}
		}
	}
	rec(nil, sig)
	return out
}

// TestViewResolvesEveryNodeLikeDecode: a view resolves every node of a cell
// decomposed into many partials to the bits Stored.Decode gives its SID, and
// every absent child to nothing, whichever path first reaches a partial — so
// whatever order the partials load in — reading each partial once.
func TestViewResolvesEveryNodeLikeDecode(t *testing.T) {
	rt, _, stored, enc, store := encodeFixture(t, 3000, func(tid table.TID) bool { return tid%5 != 0 }, 64)
	decoded := stored.Decode(enc.Codec(), store, stats.New(), wantAll)
	nodes := allNodes(decoded)
	if stored.NumPartials() < 10 {
		t.Fatalf("%d partials: the fixture should decompose into many", stored.NumPartials())
	}
	orders := map[string][]sigNode{
		"depth first":         nodes,
		"reverse depth first": slices.Clone(nodes),
		"deepest first":       slices.Clone(nodes),
	}
	slices.Reverse(orders["reverse depth first"])
	slices.SortStableFunc(orders["deepest first"], func(a, b sigNode) int { return len(b.path) - len(a.path) })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		order := slices.Clone(nodes)
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		orders[fmt.Sprint("shuffle ", i)] = order
	}
	loadOrders := map[string]bool{}
	for name, order := range orders {
		ctr := stats.New()
		v := NewView(stored, enc.Codec(), store, ctr)
		for _, sn := range order {
			sid := hindex.SID(sn.path, rt.MaxFanout())
			if got := v.node(sn.path); got == nil || got.String() != sn.n.Bits.String() {
				t.Fatalf("%s: node %v (SID %d) resolves to %v, Decode has %v", name, sn.path, sid, got, sn.n.Bits)
			}
			if sn.n.Kids == nil {
				continue
			}
			for i := sn.n.Bits.NextZero(0); i >= 0; i = sn.n.Bits.NextZero(i + 1) {
				if absent := append(slices.Clone(sn.path), i+1); v.node(absent) != nil {
					t.Fatalf("%s: absent node %v resolves to bits", name, absent)
				}
			}
		}
		if got, want := ctr.Reads(stats.StructSignature), int64(stored.NumPartials()); got != want {
			t.Fatalf("%s: the view read %d partials of %d", name, got, want)
		}
		var loaded []uint64
		for _, r := range v.runs {
			loaded = append(loaded, r.sid)
		}
		loadOrders[fmt.Sprint(loaded)] = true
	}
	if len(loadOrders) < 3 {
		t.Fatalf("the partials loaded in %d orders over %d node orders", len(loadOrders), len(orders))
	}
}
