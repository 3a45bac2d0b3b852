package sigcube

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rankcube/internal/core"
	"rankcube/internal/pager"
	"rankcube/internal/rtree"
	"rankcube/internal/signature"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// cellModel is what the stored cells are held to: one in-memory signature
// tree per cell that is never decoded from a page — so no node of it ever has
// a stored encoding to copy — and is maintained with Alg. 2's two phases from
// the path changes each write leaves in Cube.paths. Encoding a model tree
// codes every node: the whole-cell re-encode.
type cellModel map[*Cuboid]map[uint64]*signature.Node

// apply replays one write on the model, from the path map before it, and
// returns the cells it touched and how many tuples changed path.
func (m cellModel) apply(c *Cube, before map[table.TID][]int) (map[*Cuboid][]uint64, int) {
	var changed []pathUpdate
	now := livePaths(c)
	for tid, old := range before {
		if cur, ok := now[tid]; !ok || core.IntsKey(cur) != core.IntsKey(old) {
			changed = append(changed, pathUpdate{tid: tid, old: old, new: cur})
		}
	}
	for tid, cur := range now {
		if _, ok := before[tid]; !ok {
			changed = append(changed, pathUpdate{tid: tid, new: cur})
		}
	}
	touched := make(map[*Cuboid][]uint64)
	for _, cb := range c.order {
		byCell := make(map[uint64][]pathUpdate)
		for _, u := range changed {
			vals := make([]int32, len(cb.dims))
			for j, d := range cb.dims {
				vals[j] = c.t.Sel(u.tid, d)
			}
			byCell[cb.cellKey(vals)] = append(byCell[cb.cellKey(vals)], u)
		}
		for key, us := range byCell {
			sig := m[cb][key]
			for _, u := range us {
				if u.old != nil && sig != nil && sig.Clear(u.old) {
					sig = nil
				}
			}
			for _, u := range us {
				switch {
				case u.new == nil:
				case sig == nil:
					sig = signature.Generate(c.rt, [][]int{u.new})
				default:
					sig.Set(u.new, c.nodeWidth, c.rt.Height())
				}
			}
			m[cb][key] = sig
			touched[cb] = append(touched[cb], key)
		}
	}
	return touched, len(changed)
}

// livePaths is the cube's path map as paths by TID, live tuples only.
func livePaths(c *Cube) map[table.TID][]int {
	out := make(map[table.TID][]int)
	for i := range c.paths {
		if path := c.path(table.TID(i)); path != nil {
			out[table.TID(i)] = path
		}
	}
	return out
}

// wantAll has signature.Stored.Decode decode every node.
func wantAll(uint64) bool { return true }

// pagesOf returns a cell's partial pages by SID.
func pagesOf(stored *signature.Stored, store *pager.Store) map[uint64][]byte {
	out := make(map[uint64][]byte)
	for sid, page := range stored.Partials() {
		out[sid] = store.Read(page, stats.New())
	}
	return out
}

func samePages(t *testing.T, what string, got, want map[uint64][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partials, want %d", what, len(got), len(want))
	}
	for sid, page := range want {
		if !bytes.Equal(got[sid], page) {
			t.Fatalf("%s: partial %d is\n     %x\nwant %x", what, sid, got[sid], page)
		}
	}
}

func sortedPaths(paths [][]int) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = core.IntsKey(p)
	}
	sort.Strings(out)
	return out
}

// TestMaintainedCellsAreByteIdentical is the property that makes dirty-node
// maintenance safe: after every write of a long seeded sequence, each cell the
// write touched is stored byte for byte — same partial SIDs, same page bytes —
// as the whole-cell re-encode of the model writes it, and as re-encoding its
// own decoded tree with every stored encoding dropped does; and it holds
// exactly the tuples Generate puts there from the cell's live paths. (Bytes
// are not compared against Generate's: a maintained node is as wide as the
// highest slot ever set in it, Generate's as wide as the index node is now.)
func TestMaintainedCellsAreByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		zipf     float64
		baseline bool
	}{
		{"uniform/adaptive", 0, false},
		{"zipf/adaptive", 1.2, false},
		{"uniform/baseline", 0, true},
		{"zipf/baseline", 1.2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const card = 4
			tb := table.Generate(table.GenSpec{T: 250, S: 2, R: 2, Card: card, SelZipf: tc.zipf, Seed: 91})
			cfg := Config{
				PageSize:       40,
				RTree:          rtree.Config{Fanout: 6},
				Cuboids:        [][]int{{0}, {1}, {0, 1}},
				BaselineCoding: tc.baseline,
			}
			cube := Build(tb, cfg)
			rng := rand.New(rand.NewSource(92))
			var zipf *rand.Zipf
			if tc.zipf > 0 {
				zipf = rand.NewZipf(rng, tc.zipf, 1, card-1)
			}
			sel := func() int32 {
				if zipf != nil {
					return int32(zipf.Uint64())
				}
				return int32(rng.Intn(card))
			}

			// The model starts from what Build stored.
			model := make(cellModel)
			maxPartials := 0
			for _, cb := range cube.order {
				model[cb] = make(map[uint64]*signature.Node)
				for key, stored := range cb.cells {
					// A copy carries no encoding.
					model[cb][key] = stored.Decode(cube.enc.Codec(), cube.store, stats.New(), wantAll).Clone()
					maxPartials = max(maxPartials, stored.NumPartials())
				}
			}
			if maxPartials < 4 {
				t.Fatalf("the largest cell has %d partials: too few to cross cuts", maxPartials)
			}

			check := func(cb *Cuboid, key uint64, tuples bool) {
				t.Helper()
				what := fmt.Sprintf("cuboid %v cell %d", cb.dims, key)
				scratch := pager.NewStore(stats.StructSignature, cfg.PageSize)
				enc := signature.NewEncoder(cube.rt.MaxFanout(), cube.rt.Height(), scratch)
				enc.SetBaselineOnly(cfg.BaselineCoding)
				got := pagesOf(cb.cells[key], cube.store)
				samePages(t, what+" against the model's whole-cell encode", got, pagesOf(enc.Encode(model[cb][key]), scratch))

				decoded := cb.cells[key].Decode(cube.enc.Codec(), cube.store, stats.New(), wantAll)
				samePages(t, what+" against its own tree coded afresh", got, pagesOf(enc.Encode(decoded.Clone()), scratch))

				if !tuples {
					return
				}
				var live [][]int
				for tid, path := range livePaths(cube) {
					vals := make([]int32, len(cb.dims))
					for j, d := range cb.dims {
						vals[j] = tb.Sel(tid, d)
					}
					if cb.cellKey(vals) == key {
						live = append(live, path)
					}
				}
				h := cube.rt.Height()
				want := sortedPaths(signature.Generate(cube.rt, live).Tuples(h))
				if got := sortedPaths(decoded.Tuples(h)); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != len(live) {
					t.Fatalf("%s holds %d tuples, %d are live: %q, want %q", what, len(got), len(live), got, want)
				}
			}

			// One cell is emptied and, much later, filled again.
			rare := []int32{card - 1, card - 1}
			rareKey := cube.Cuboid([]int{0, 1}).cellKey(rare)
			var rareTIDs []table.TID
			for tid := range livePaths(cube) {
				if tb.Sel(tid, 0) == rare[0] && tb.Sel(tid, 1) == rare[1] {
					rareTIDs = append(rareTIDs, tid)
				}
			}
			sort.Slice(rareTIDs, func(a, b int) bool { return rareTIDs[a] < rareTIDs[b] })

			height, rootSplits, splits, emptied, refilled := cube.rt.Height(), 0, 0, false, false
			const ops = 700
			for op := 0; op < ops; op++ {
				before := livePaths(cube)
				switch {
				case op >= 100 && len(rareTIDs) > 0:
					cube.Delete(rareTIDs[0], stats.New())
					rareTIDs = rareTIDs[1:]
				case op == 500:
					cube.Insert(rare, []float64{rng.Float64(), rng.Float64()}, stats.New())
				case op < 450 && op%3 != 0 || op%2 == 0: // grow first, then churn
					s := []int32{sel(), sel()}
					for s[0] == rare[0] && s[1] == rare[1] {
						s = []int32{sel(), sel()}
					}
					cube.Insert(s, []float64{rng.Float64(), rng.Float64()}, stats.New())
				default:
					live := make([]table.TID, 0, len(before))
					for tid := range before {
						live = append(live, tid)
					}
					sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
					cube.Delete(live[rng.Intn(len(live))], stats.New())
				}
				touched, changed := model.apply(cube, before)
				if len(livePaths(cube)) > len(before) && changed > 1 {
					splits++ // the insert moved other tuples
				}
				if h := cube.rt.Height(); h > height {
					rootSplits++
					height = h
				}
				for cb, keys := range touched {
					for _, key := range keys {
						check(cb, key, op%8 == 0)
					}
				}
				if cb := cube.Cuboid([]int{0, 1}); cb.cells[rareKey].NumPartials() == 0 && op > 100 {
					emptied = true
				} else if emptied && cb.cells[rareKey].NumPartials() > 0 {
					refilled = true
				}
			}
			if splits == 0 || rootSplits == 0 || !emptied || !refilled {
				t.Fatalf("the sequence saw %d node splits, %d root splits, a cell emptied: %v, filled again: %v — it has to see them all",
					splits, rootSplits, emptied, refilled)
			}
			// At the end every cell, touched lately or not.
			for _, cb := range cube.order {
				for key := range cb.cells {
					check(cb, key, true)
				}
			}
		})
	}
}

// TestWriteLayoutRepeats: the same writes on the same cube put the same bytes
// on the same pages, run after run — cells are rewritten in sorted order, not
// in the order a map gives the update set up.
func TestWriteLayoutRepeats(t *testing.T) {
	layout := func() [][]byte {
		tb := table.Generate(table.GenSpec{T: 400, S: 2, R: 2, Card: 5, Seed: 93})
		cube := Build(tb, Config{PageSize: 64, RTree: rtree.Config{Fanout: 6}, Cuboids: [][]int{{0}, {1}, {0, 1}}})
		rng := rand.New(rand.NewSource(94))
		for op := 0; op < 150; op++ {
			if op%3 == 2 {
				cube.Delete(table.TID(rng.Intn(400)), stats.New())
			} else {
				cube.Insert([]int32{int32(rng.Intn(5)), int32(rng.Intn(5))}, []float64{rng.Float64(), rng.Float64()}, stats.New())
			}
		}
		pages := make([][]byte, cube.store.NumPages())
		for id := range pages {
			pages[id] = cube.store.Read(pager.PageID(id), stats.New())
		}
		return pages
	}
	first := layout()
	for run := 0; run < 3; run++ {
		again := layout()
		if len(again) != len(first) {
			t.Fatalf("run %d ends with %d pages, the first with %d", run, len(again), len(first))
		}
		for id := range first {
			if !bytes.Equal(again[id], first[id]) {
				t.Fatalf("run %d: page %d differs from the first run's", run, id)
			}
		}
	}
}
