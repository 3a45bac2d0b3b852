// Package joinquery implements chapter 6 of the thesis: SPJR (select,
// project, join, rank) queries over multiple relations, each carrying its
// own ranking cube. The system follows the chapter's architecture (fig.
// 6.1): a query optimizer chooses per-relation access paths and a pull
// schedule, and a query executor combines rank-aware selection operators
// (§6.3.1) through a multi-way rank join (§6.3.2) with join-key list
// pruning (§6.3.3).
//
// The source text of chapter 6 is summarized rather than fully reproduced
// in our copy of the thesis; the executor follows the chapter's stated
// design — per-relation ranking cubes producing score-ordered streams,
// merged with a threshold-bounded rank join — with the standard HRJN-style
// threshold for the stop condition.
package joinquery

import (
	"cmp"
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
}

// NewRelation wraps a relation, building its key-presence filter.
func NewRelation(name string, t *table.Table, cube *sigcube.Cube, keys []int32, keyCard int) *Relation {
	if len(keys) != t.Len() {
		//lint:invariant documented precondition: one join key per tuple
		panic(fmt.Sprintf("joinquery: %d keys for %d tuples", len(keys), t.Len()))
	}
	r := &Relation{Name: name, T: t, Cube: cube, Keys: keys, KeyCard: keyCard,
		keyPresent: make([]bool, keyCard)}
	for _, k := range keys {
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

// scanThreshold is the estimated matching-tuple count up to which the
// optimizer prefers materializing a relation's matches outright over a
// progressive cube scan (§6.2.1).
const scanThreshold = 64

// Execute runs the query: the optimizer plans per-relation access
// (§6.2.1-6.2.2), the executor pulls from the rank-aware selections and
// joins with a threshold stop condition (§6.3.2).
func Execute(q Query, opts Options, ctr *stats.Counters) ([]Result, error) {
	if len(q.Parts) < 2 {
		return nil, fmt.Errorf("joinquery: need at least 2 relations, got %d: %w", len(q.Parts), errs.ErrInvalidArgument)
	}
	if q.K <= 0 {
		return nil, nil
	}
	exec := &executor{q: q, opts: opts, ctr: ctr}
	endPlan := ctr.StartSpan("plan")
	err := exec.open()
	endPlan()
	if err != nil {
		return nil, err
	}
	defer ctr.StartSpan("rank-join")()
	return exec.run()
}

// source is a planned per-relation input stream: score-ascending matching
// tuples with a lower bound for the unseen remainder.
type source interface {
	Next() (core.Result, bool)
	Bound() float64
}

// cubeSource adapts sigcube.Scanner.
type cubeSource struct{ s *sigcube.Scanner }

func (c cubeSource) Next() (core.Result, bool) { return c.s.Next() }
func (c cubeSource) Bound() float64            { return c.s.Bound() }

// materializedSource holds pre-computed matches sorted ascending — the
// optimizer's choice for highly selective conditions (§6.2.1).
type materializedSource struct {
	items []core.Result
	pos   int
}

func (m *materializedSource) Next() (core.Result, bool) {
	if m.pos >= len(m.items) {
		return core.Result{}, false
	}
	r := m.items[m.pos]
	m.pos++
	return r, true
}

func (m *materializedSource) Bound() float64 {
	if m.pos >= len(m.items) {
		return math.Inf(1)
	}
	return m.items[m.pos].Score
}

type executor struct {
	q    Query
	opts Options
	ctr  *stats.Counters

	sources []source
	// seen[i] maps join key → tuples of relation i pulled so far.
	seen []map[int32][]core.Result
	// first[i] is relation i's best score, which drives the HRJN threshold.
	first     []float64
	exhausted []bool
	topk      *heap.Bounded[Result]
	// seenCount totals buffered tuples across all seen tables — the rank
	// join's candidate buffer, reported through ObserveHeap so the peak
	// metric and the candidate budget cover joins too.
	seenCount int
	// keyAllowed[i][key]: list pruning — keys that can possibly join across
	// all relations (§6.3.3).
	keyAllowed []bool
}

// open plans each relation (optimizer) and prepares join state.
func (e *executor) open() error {
	n := len(e.q.Parts)
	e.sources = make([]source, n)
	e.seen = make([]map[int32][]core.Result, n)
	e.first = make([]float64, n)
	e.exhausted = make([]bool, n)
	e.topk = heap.NewBounded[Result](e.q.K, worseJoined)

	// List pruning: a join key is viable only when present in every
	// relation (§6.3.3). Keys use a shared domain, sized by the largest
	// relation's: a key beyond some relation's KeyCard is not viable.
	keyCard := 0
	for _, p := range e.q.Parts {
		keyCard = max(keyCard, p.Rel.KeyCard)
	}
	e.keyAllowed = make([]bool, keyCard)
	for k := 0; k < keyCard; k++ {
		ok := true
		for _, p := range e.q.Parts {
			if k >= p.Rel.KeyCard || !p.Rel.keyPresent[k] {
				ok = false
				break
			}
		}
		e.keyAllowed[k] = ok
	}

	for i, p := range e.q.Parts {
		src, err := e.plan(p)
		if err != nil {
			return err
		}
		e.sources[i] = src
		e.seen[i] = make(map[int32][]core.Result)
		e.first[i] = math.NaN()
	}
	return nil
}

// plan implements the single-relation optimizer (§6.2.1): estimate the
// matching cardinality from dimension selectivities; a highly selective
// condition is answered by materializing and sorting its matches (via the
// boolean path), everything else by a progressive cube scan.
func (e *executor) plan(p Part) (source, error) {
	t := p.Rel.T
	est := float64(t.Len())
	for d := range p.Cond {
		est /= float64(t.Schema().SelCard[d])
	}
	if int(est) <= scanThreshold {
		items := materialize(p, e.ctr)
		return &materializedSource{items: items}, nil
	}
	sc, err := p.Rel.Cube.Scan(p.Cond, p.F, e.ctr)
	if err != nil {
		return nil, err
	}
	return cubeSource{s: sc}, nil
}

// scan makes one sequential pass over the part's relation (live tuples
// only, charged once) and hands visit every match with a finite score.
func (p Part) scan(ctr *stats.Counters, visit func(core.Result)) {
	p.Rel.Cube.SeqScan(p.Cond, ctr, func(tid table.TID, rank []float64) {
		if score := p.F.Eval(rank); !math.IsInf(score, 1) {
			visit(core.Result{TID: tid, Score: score})
		}
	})
}

// materialize scans the relation for matches and sorts them.
func materialize(p Part, ctr *stats.Counters) []core.Result {
	var items []core.Result
	p.scan(ctr, func(r core.Result) { items = append(items, r) })
	slices.SortFunc(items, func(a, b core.Result) int {
		return cmp.Or(cmp.Compare(a.Score, b.Score), cmp.Compare(a.TID, b.TID))
	})
	return items
}

// run is the multi-way rank join (§6.3.2): pull adaptively from the source
// whose threshold term is loosest, probe the other relations' seen tables
// for join combinations, and stop when the kth combined score is at most
// the threshold bound on all unseen combinations.
func (e *executor) run() ([]Result, error) {
	n := len(e.sources)
	for {
		// A pull from a materialized source costs no block read, so give
		// cancellation an explicit abort point each iteration.
		e.ctr.Checkpoint()
		// Threshold: any unseen combination uses an unseen tuple from some
		// relation i, so its score is at least bound_i + Σ_{j≠i} first_j.
		if e.topk.Full() && e.topk.Worst().Score <= e.threshold() {
			break
		}
		// Pick the relation whose unseen bound currently dominates the
		// threshold (HRJN*-style adaptive pulling).
		pick := -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if e.exhausted[i] {
				continue
			}
			term := e.comboBound(i)
			if term < best {
				best, pick = term, i
			}
		}
		if pick < 0 {
			break // all sources exhausted
		}
		r, ok := e.sources[pick].Next()
		if !ok {
			e.exhausted[pick] = true
			continue
		}
		if math.IsNaN(e.first[pick]) {
			e.first[pick] = r.Score
		}

		key := e.q.Parts[pick].Rel.Keys[r.TID]
		if !e.opts.DisableListPruning && !e.keyAllowed[key] {
			e.ctr.Pruned++
			continue
		}
		e.seen[pick][key] = append(e.seen[pick][key], r)
		e.seenCount++
		e.ctr.ObserveHeap(e.seenCount)
		e.probe(pick, key, r)
	}
	return e.topk.Sorted(), nil
}

// comboBound is the lower bound of combinations completed by relation i's
// next unseen tuple.
func (e *executor) comboBound(i int) float64 {
	b := e.sources[i].Bound()
	if math.IsInf(b, 1) {
		return b
	}
	for j := range e.sources {
		if j == i {
			continue
		}
		f := e.first[j]
		if math.IsNaN(f) {
			f = 0 // nothing pulled yet: scores are bounded below by 0 for
			// the thesis' distance/linear-positive components; kept sound
			// by pulling every source at least once before stopping.
		}
		b += f
	}
	return b
}

// threshold is the minimum comboBound over live sources; unseen
// combinations cannot beat it.
func (e *executor) threshold() float64 {
	t := math.Inf(1)
	allStarted := true
	for i := range e.sources {
		if math.IsNaN(e.first[i]) && !e.exhausted[i] {
			allStarted = false
		}
	}
	if !allStarted {
		return math.Inf(-1) // cannot stop before every source contributed
	}
	for i := range e.sources {
		if e.exhausted[i] {
			continue
		}
		if b := e.comboBound(i); b < t {
			t = b
		}
	}
	return t
}

// probe joins a freshly pulled tuple with all seen combinations of the
// other relations sharing its key.
func (e *executor) probe(origin int, key int32, r core.Result) {
	n := len(e.sources)
	combo := make([]core.Result, n)
	combo[origin] = r
	var rec func(i int, score float64)
	rec = func(i int, score float64) {
		if i == n {
			tids := make([]table.TID, n)
			for j, c := range combo {
				tids[j] = c.TID
			}
			e.topk.Offer(Result{TIDs: tids, Score: score})
			return
		}
		if i == origin {
			rec(i+1, score)
			return
		}
		for _, c := range e.seen[i][key] {
			combo[i] = c
			rec(i+1, score+c.Score)
		}
	}
	rec(0, r.Score)
}
