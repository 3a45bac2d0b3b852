// Package joinquery implements chapter 6 of the thesis: SPJR (select,
// project, join, rank) queries over multiple relations, each carrying its
// own ranking cube. Every part of a query has one access path, its
// rank-aware selection operator (§6.3.1): a progressive scan of its
// relation's cube, left open. The executor merges those score-ordered
// streams through a multi-way rank join (§6.3.2), pulling adaptively from
// the part whose bound is loosest (HRJN*) and dropping tuples whose join key
// some other relation lacks (list pruning, §6.3.3).
//
// The source text of chapter 6 is summarized rather than fully reproduced
// in our copy of the thesis; the executor follows the chapter's stated
// design — per-relation ranking cubes producing score-ordered streams,
// merged with a threshold-bounded rank join — with the standard HRJN-style
// threshold for the stop condition.
package joinquery

import (
	"fmt"
	"math"
	"slices"

	"rankcube/internal/core"
	"rankcube/internal/errs"
	"rankcube/internal/heap"
	"rankcube/internal/ranking"
	"rankcube/internal/sigcube"
	"rankcube/internal/stats"
	"rankcube/internal/table"
)

// Relation is one participant of an SPJR query: a base relation, its
// ranking cube, and a join-key column (equality joins on a shared key
// domain).
type Relation struct {
	Name string
	T    *table.Table
	Cube *sigcube.Cube
	// Keys[tid] is the join attribute value of tuple tid.
	Keys []int32
	// KeyCard is the join-key domain size.
	KeyCard int

	// keyPresent marks join-key values that occur at all — the basis of
	// list pruning (§6.3.3).
	keyPresent []bool
	// err records a key outside [0, KeyCard): every query over the relation
	// is refused with it.
	err error
}

// NewRelation wraps a relation, building its key-presence filter. It never
// panics: a key outside [0, keyCard) is recorded, and a query over the
// relation fails with ErrInvalidArgument.
func NewRelation(name string, t *table.Table, cube *sigcube.Cube, keys []int32, keyCard int) *Relation {
	r := &Relation{Name: name, T: t, Cube: cube, Keys: keys, KeyCard: keyCard,
		keyPresent: make([]bool, max(keyCard, 0))}
	for tid, k := range keys {
		if k < 0 || int(k) >= keyCard {
			r.err = fmt.Errorf("joinquery: relation %q: key %d of tuple %d is outside [0, %d): %w", name, k, tid, keyCard, errs.ErrInvalidArgument)
			break
		}
		r.keyPresent[k] = true
	}
	return r
}

// Part is one relation's role in a query: its boolean condition and its
// component of the ranking function (evaluated over its own ranking
// dimensions). The total score of a join result is the sum of the parts,
// keeping the combined function monotone in the per-relation scores as
// rank-join requires.
type Part struct {
	Rel  *Relation
	Cond core.Cond
	F    ranking.Func
}

// Query is a multi-relational top-k query (§6.1.1).
type Query struct {
	Parts []Part
	K     int
}

// check is the one check of a join request, made by Execute and BruteForce
// before either reads anything (at the public boundary under the cubes'
// shared locks, which hold every relation still): at least two parts, each
// over a relation with a table, a cube and one key in range per tuple — a
// cube's InsertTuple grows the relation past its keys — ranked by a function
// of its own rank dimensions.
func (q Query) check() error {
	if len(q.Parts) < 2 {
		return fmt.Errorf("joinquery: need at least 2 relations, got %d: %w", len(q.Parts), errs.ErrInvalidArgument)
	}
	for i, p := range q.Parts {
		r := p.Rel
		switch {
		case r == nil || r.T == nil || r.Cube == nil:
			return fmt.Errorf("joinquery: part %d needs a relation with a table and a cube: %w", i, errs.ErrInvalidArgument)
		case r.err != nil:
			return r.err
		case len(r.Keys) != r.T.Len():
			return fmt.Errorf("joinquery: relation %q has %d keys for %d tuples: %w", r.Name, len(r.Keys), r.T.Len(), errs.ErrInvalidArgument)
		}
		if err := core.CheckFunc(p.F, r.T); err != nil {
			return err
		}
	}
	return nil
}

// Result is one joined answer: the member tuple of each relation plus the
// combined score.
type Result struct {
	TIDs  []table.TID
	Score float64
}

func worseJoined(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	for i := range a.TIDs {
		if a.TIDs[i] != b.TIDs[i] {
			return a.TIDs[i] > b.TIDs[i]
		}
	}
	return false
}

// Options tunes execution.
type Options struct {
	// DisableListPruning turns off join-key pruning (ablation).
	DisableListPruning bool
}

// joiner is what the rank join and BruteForce share: the tuples each part
// has kept, bucketed by join key, the best k combinations so far, and the
// walk that combines them.
type joiner struct {
	kept []map[int32][]core.Result
	topk *heap.Bounded[Result]
	// combo is walk's scratch: one tuple per part.
	combo []table.TID
}

func newJoiner(q Query) joiner {
	j := joiner{kept: make([]map[int32][]core.Result, len(q.Parts)),
		topk: heap.NewBounded[Result](q.K, worseJoined), combo: make([]table.TID, len(q.Parts))}
	for i := range j.kept {
		j.kept[i] = make(map[int32][]core.Result)
	}
	return j
}

// walk offers the top k every combination of the tuples kept under key, one
// from each part from i on, except that part fixed (-1 for none) keeps the
// tuple already in combo; score sums the scores chosen before i.
func (j *joiner) walk(i, fixed int, key int32, score float64) {
	switch {
	case i == len(j.combo):
		j.topk.Offer(Result{TIDs: slices.Clone(j.combo), Score: score})
	case i == fixed:
		j.walk(i+1, fixed, key, score)
	default:
		for _, r := range j.kept[i][key] {
			j.combo[i] = r.TID
			j.walk(i+1, fixed, key, score+r.Score)
		}
	}
}

// Execute runs the query: it opens each part's rank-aware selection over its
// cube (§6.3.1) and joins the streams with a threshold stop condition
// (§6.3.2). Every scanner it opened is released on the way out, an error or
// an abort included.
func Execute(q Query, opts Options, ctr *stats.Counters) ([]Result, error) {
	if err := q.check(); err != nil || q.K <= 0 {
		return nil, err
	}
	defer ctr.StartSpan("rank-join")()
	e := &executor{joiner: newJoiner(q), parts: q.Parts, opts: opts, ctr: ctr,
		scanners: make([]*sigcube.Scanner, 0, len(q.Parts)), first: make([]float64, len(q.Parts)),
		keyAllowed: viableKeys(q.Parts)}
	defer func() {
		for _, sc := range e.scanners {
			sc.Release()
		}
	}()
	for i, p := range q.Parts {
		sc, err := p.Rel.Cube.Scan(p.Cond, p.F, ctr)
		if err != nil {
			return nil, err
		}
		e.scanners = append(e.scanners, sc)
		e.first[i] = math.NaN()
	}
	return e.run(), nil
}

// viableKeys is list pruning (§6.3.3): a join key is viable only when present
// in every relation. Keys use a shared domain, sized by the largest
// relation's: a key beyond some relation's KeyCard is not viable.
func viableKeys(parts []Part) []bool {
	keyCard := 0
	for _, p := range parts {
		keyCard = max(keyCard, p.Rel.KeyCard)
	}
	viable := make([]bool, keyCard)
	for k := range viable {
		viable[k] = true
		for _, p := range parts {
			if k >= p.Rel.KeyCard || !p.Rel.keyPresent[k] {
				viable[k] = false
				break
			}
		}
	}
	return viable
}

type executor struct {
	joiner
	parts    []Part
	opts     Options
	ctr      *stats.Counters
	scanners []*sigcube.Scanner
	// first[i] is part i's best score, which drives the HRJN threshold; NaN
	// until its first pull.
	first []float64
	// seenCount totals the tuples kept across all parts — the rank join's
	// candidate buffer, reported through ObserveHeap so the peak metric and
	// the candidate budget cover joins too.
	seenCount int
	// keyAllowed[key]: the join keys list pruning lets through.
	keyAllowed []bool
}

// run is the multi-way rank join (§6.3.2): pull from the part pick names,
// combine the tuple with the other parts' kept tuples under its key, and
// stop when the kth combined score is at most the threshold bound on all
// unseen combinations.
func (e *executor) run() []Result {
	for {
		// A pull the scanner answers from its heap reads nothing, so give
		// cancellation an explicit abort point each iteration.
		e.ctr.Checkpoint()
		pick, threshold := e.pick()
		if pick < 0 || e.topk.Full() && e.topk.Worst().Score <= threshold {
			break
		}
		r, ok := e.scanners[pick].Next()
		if !ok {
			continue // its Bound is +Inf from now on
		}
		if math.IsNaN(e.first[pick]) {
			e.first[pick] = r.Score
		}
		key := e.parts[pick].Rel.Keys[r.TID]
		if !e.opts.DisableListPruning && !e.keyAllowed[key] {
			e.ctr.Pruned++
			continue
		}
		e.kept[pick][key] = append(e.kept[pick][key], r)
		e.seenCount++
		e.ctr.ObserveHeap(e.seenCount)
		e.combo[pick] = r.TID
		e.walk(0, pick, key, r.Score)
	}
	return e.topk.Sorted()
}

// pick names the part to pull from next, the one whose next unseen tuple
// bounds the combinations it completes lowest (HRJN*-style adaptive
// pulling), and returns the threshold no unseen combination can beat: the
// lowest of those bounds, or -Inf while some part with tuples left has not
// been pulled. It returns -1 when no further combination can form: every
// part is exhausted, or one is exhausted having kept no tuple.
func (e *executor) pick() (pick int, threshold float64) {
	pick, threshold = -1, math.Inf(1)
	started := true
	for i, sc := range e.scanners {
		b := sc.Bound()
		if math.IsInf(b, 1) {
			if len(e.kept[i]) == 0 {
				return -1, b
			}
			continue
		}
		started = started && !math.IsNaN(e.first[i])
		// An unseen tuple of part i combines with at least the best score of
		// every other part. A part not pulled yet adds 0, which bounds the
		// thesis' distance and positive-linear components from below; the
		// threshold stays -Inf until it has been pulled.
		for j, f := range e.first {
			if j != i && !math.IsNaN(f) {
				b += f
			}
		}
		if b < threshold {
			pick, threshold = i, b
		}
	}
	if !started {
		threshold = math.Inf(-1)
	}
	return pick, threshold
}
