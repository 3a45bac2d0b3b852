package skyline

import (
	"testing"
	"unsafe"

	"rankcube/internal/core"
	"rankcube/internal/rtree"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// TestSkylineSessionAllocs pins what a warmed-up navigation session allocates
// — a skyline, a drill-down from it and a roll-up from that — and holds every
// snapshot of the session to at most 8 bytes per entry it pruned. The states,
// corners and pruned SIDs of a run come from the engine's pool; a snapshot
// keeps one exact-sized copy of the SIDs and one slab of its new members'
// coordinates.
func TestSkylineSessionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled state at random")
	}
	tb := table.Generate(table.GenSpec{T: 20000, S: 3, R: 3, Card: 10, Dist: table.AntiCorrelated, Seed: 9})
	e := NewEngine(sigcube.Build(tb, sigcube.Config{RTree: rtree.Config{Fanout: 16}}))
	q := Query{Cond: core.Cond{0: 1}, Dims: []int{0, 1, 2}}
	session := func() [3]*Snapshot {
		var snaps [3]*Snapshot
		var err error
		if _, snaps[0], err = e.Skyline(q, stats.New()); err != nil {
			t.Fatal(err)
		}
		if _, snaps[1], err = e.DrillDown(snaps[0], core.Cond{1: 2}, stats.New()); err != nil {
			t.Fatal(err)
		}
		if _, snaps[2], err = e.RollUp(snaps[1], []int{0}, stats.New()); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	for i, snap := range session() {
		if len(snap.pruned) == 0 {
			t.Fatalf("step %d pruned nothing by domination", i)
		}
		if bytes := int(unsafe.Sizeof(snap.pruned[0])) * cap(snap.pruned); bytes > 8*len(snap.pruned) {
			t.Fatalf("step %d holds %d bytes for %d pruned entries", i, bytes, len(snap.pruned))
		}
	}
	const want = 98
	if got := testing.AllocsPerRun(50, func() { session() }); got != want {
		t.Fatalf("a session allocates %v times, want %v", got, want)
	}
}
