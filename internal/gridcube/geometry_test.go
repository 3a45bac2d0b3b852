package gridcube

import (
	"math/rand"
	"slices"
	"testing"

	"rankcube/internal/table"
)

// divCoords is a block's bin coordinates by division: the bid is their
// row-major index, the last dimension varying fastest.
func divCoords(m Meta, bid BID) []int {
	coords := make([]int, m.R)
	for v, d := int(bid), m.R-1; d >= 0; d-- {
		coords[d] = v % m.Bins
		v /= m.Bins
	}
	return coords
}

// checkGeometry holds c's geometry tables to the arithmetic they replace, for
// every bid: the coordinates to division, the box to the bin edges at them,
// the neighbour list, as a set, to the Moore neighbourhood enumerated from
// them, and every cuboid's pseudo block to the coordinates divided by its
// scale factor.
func checkGeometry(t *testing.T, c *Cube, what string) {
	t.Helper()
	m := c.meta
	if len(m.coords) != m.NumBlocks()*m.R {
		t.Fatalf("%s: %d coordinates for %d blocks of %d dimensions", what, len(m.coords), m.NumBlocks(), m.R)
	}
	for bid := BID(0); int(bid) < m.NumBlocks(); bid++ {
		coords := divCoords(m, bid)
		for d, want := range coords {
			if got := int(m.coords[int(bid)*m.R+d]); got != want {
				t.Fatalf("%s: block %d has coordinate %d on dimension %d, division %d", what, bid, got, d, want)
			}
		}
		box := m.BlockBox(bid)
		for d, x := range coords {
			if box.Lo[d] != m.Bounds[d][x] || box.Hi[d] != m.Bounds[d][x+1] {
				t.Fatalf("%s: block %d spans [%v, %v] on dimension %d, its bin [%v, %v]", what, bid, box.Lo[d], box.Hi[d], d, m.Bounds[d][x], m.Bounds[d][x+1])
			}
		}
		got, want := m.Neighbors(bid, nil), refNeighbors(m, bid, nil)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: block %d has neighbours %v, want %v", what, bid, got, want)
		}
		for _, cb := range c.cuboids {
			if got, want := cb.PseudoOf(bid), refPseudoOf(m, cb, bid); got != want {
				t.Fatalf("%s: cuboid %v maps block %d to pseudo block %d, want %d", what, cb.dims, bid, got, want)
			}
		}
	}
}

// TestGeometryTablesMatchArithmetic: the block geometry a cube reads from
// tables — coordinates, boxes, neighbours, pseudo blocks — is what dividing a
// bid gives, over one, two and three ranking dimensions, one bin or many, on
// a cube as built, after inserts and deletes, after a cuboid's repair and
// after a repartition.
func TestGeometryTablesMatchArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, r := range []int{1, 2, 3} {
		for _, blockSize := range []int{1 << 20, 40, 7} {
			tb := testTable(1500, 3, r, 4, int64(10*r+blockSize))
			c := Build(tb, Config{BlockSize: blockSize, FragmentSize: 2})
			if blockSize == 1<<20 && c.meta.Bins != 1 {
				t.Fatalf("R=%d: %d bins with one block's worth of rows", r, c.meta.Bins)
			}
			checkGeometry(t, c, "built")
			sel, rank := make([]int32, 3), make([]float64, r)
			for i := 0; i < 60; i++ {
				for d := range sel {
					sel[d] = int32(rng.Intn(4))
				}
				for d := range rank {
					rank[d] = rng.Float64()*1.2 - 0.1
				}
				c.Insert(sel, rank)
				c.Delete(table.TID(rng.Intn(c.t.Len())))
			}
			checkGeometry(t, c, "maintained")
			for _, cb := range c.Cuboids() {
				c.RebuildCuboid(cb)
			}
			checkGeometry(t, c, "repaired")
			c.Repartition()
			checkGeometry(t, c, "repartitioned")
		}
	}
}
