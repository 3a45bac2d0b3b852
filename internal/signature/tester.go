package signature

import "rankcube/internal/bitvec"

// Tester answers boolean-pruning probes during query processing: does the
// node/tuple at this partition path contain (or constitute) a tuple
// satisfying the boolean predicate? Test is the whole contract — a wrapper
// that times, counts or filters a tester needs nothing more — and the one
// skyline processing and index merging use.
type Tester interface {
	Test(path []int) bool
}

// Prober is a Tester backed by per-node bit vectors, which can therefore
// answer for every child of a node at once: Probe clears from live — one bit
// per child slot of the partition node at parent — each slot whose child
// fails Test. It performs the loads (and charges the reads) that a Test of
// one of those children would perform; probing a resident node again charges
// nothing. The branch-and-bound search qualifies an expanded node's children
// this way instead of testing them one heap entry at a time.
type Prober interface {
	Tester
	Probe(parent []int, live *bitvec.Bits)
}

// Stages flattens a tester into the probers that qualify a node's children
// in sequence: none for True, one for a Prober, the members' stages in order
// for an And — so that a member is consulted only over the survivors of the
// members before it, which is where the short-circuit of And.Test first
// reaches it. A child passes t iff it survives every stage. ok is false when
// some part of t offers only Test; such a tester is opaque and has to be
// asked about one path at a time.
func Stages(t Tester) (stages []Prober, ok bool) {
	switch t := t.(type) {
	case True:
		return nil, true
	case And:
		for _, m := range t {
			ms, ok := Stages(m)
			if !ok {
				return nil, false
			}
			stages = append(stages, ms...)
		}
		return stages, true
	case Prober:
		return []Prober{t}, true
	}
	return nil, false
}

// Probers is what a branch-and-bound search qualifies a node's children with:
// t's stages, or — when a part of t offers only Test: a wrapper around a
// tester, a bloom measure, a disjunction — one stand-in stage that asks t
// about the live children one path at a time.
func Probers(t Tester) []Prober {
	if stages, ok := Stages(t); ok {
		return stages
	}
	return []Prober{&perSlot{Tester: t}}
}

// Qualify leaves in live the children of the node at parent that pass the
// boolean test: a stage at a time over the survivors of the stages before, and
// no further than the stage that leaves none — where the short-circuit of
// And.Test stops loading. The stages load what they have to the first time
// round, and nothing when asked about the node again.
func Qualify(stages []Prober, parent []int, live *bitvec.Bits) {
	for _, stage := range stages {
		if !live.Any() {
			return
		}
		stage.Probe(parent, live)
	}
}

// perSlot stands a tester that offers only Test in for a stage: each live
// child is put to it in slot order, so it loads what testing those paths one
// by one loads.
type perSlot struct {
	Tester
	path []int
}

// Probe implements Prober.
func (p *perSlot) Probe(parent []int, live *bitvec.Bits) {
	p.path = append(append(p.path[:0], parent...), 0)
	for slot := live.NextOne(0); slot >= 0; slot = live.NextOne(slot + 1) {
		p.path[len(parent)] = slot + 1
		if !p.Test(p.path) {
			live.Set(slot, false)
		}
	}
}

// True is the no-predicate tester: everything passes.
type True struct{}

// Test implements Tester.
func (True) Test([]int) bool { return true }

// And is the online conjunction assembly of §4.3.3: at internal nodes the
// slot-wise AND of member signatures is a sound overapproximation (a subtree
// may satisfy each predicate through different tuples); at the tuple level
// it is exact, which preserves query correctness.
type And []Tester

// Test implements Tester.
func (a And) Test(path []int) bool {
	for _, t := range a {
		if !t.Test(path) {
			return false
		}
	}
	return true
}

var (
	_ Tester = True{}
	_ Tester = And(nil)
	_ Prober = (*View)(nil)
	_ Prober = (*Node)(nil)
)
