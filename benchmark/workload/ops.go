package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"rankcube"
)

// OpKind tags one client request.
type OpKind uint8

// Request kinds. A Session is analytic-mix's unit of work: six read
// requests issued back to back by one client.
const (
	OpQuery OpKind = iota
	OpInsert
	OpDelete
	OpSession
)

// Op is one pre-generated client request. Op lists are generated up front
// from the seed, so the timed window does no generation work and two runs of
// one seed issue byte-identical requests.
type Op struct {
	Kind OpKind

	// OpQuery: top-k of F among tuples matching Cond.
	Cond rankcube.Cond
	F    FuncSpec
	K    int

	// OpInsert: the new tuple, and the id the relation will assign to it
	// (ids are sequential, so generation can name later delete victims).
	Sel  []int32
	Rank []float64
	// OpDelete: the victim. OpInsert: the expected new id.
	TID rankcube.TID

	// OpSession: see Session.
	Session *Session

	// f caches F.Build(): an ad hoc function is built by the client before
	// it sends the request, outside the measured call.
	f rankcube.Func
}

// Session is one analytic-mix session over the signature cube, the B-tree
// pair and the join pair:
//
//	skyline(Cond) → drill-down(+Extra) → roll-up(−Cond's dimension)
//	→ index-merge top-100 of Merge → rank join top-10 → progressive scan,
//	first 50 tuples.
type Session struct {
	// SkyDim/SkyVal is the opening skyline's predicate; ExtraDim/ExtraVal the
	// drill-down's added one. The roll-up removes SkyDim again.
	SkyDim, ExtraDim int
	SkyVal, ExtraVal int32
	// Merge is a SqDist over the two B-tree-indexed dimensions.
	Merge FuncSpec
	// JoinCond[i]/JoinF[i] select and score relation i of the join pair.
	JoinCond [2]rankcube.Cond
	JoinF    [2]FuncSpec
	// ScanCond/ScanF open the progressive scan.
	ScanCond rankcube.Cond
	ScanF    FuncSpec

	merge, scan rankcube.Func
	join        [2]rankcube.Func
}

// Session sizes fixed by the workload definition.
const (
	MergeK = 100
	JoinK  = 10
	ScanN  = 50
)

// prepare builds the cached ranking functions of ops.
func prepare(ops []Op) {
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case OpQuery:
			op.f = op.F.Build()
		case OpSession:
			s := op.Session
			s.merge, s.scan = s.Merge.Build(), s.ScanF.Build()
			s.join[0], s.join[1] = s.JoinF[0].Build(), s.JoinF[1].Build()
		}
	}
}

// IsRead reports whether the op only reads: a query or a session.
func (op *Op) IsRead() bool { return op.Kind == OpQuery || op.Kind == OpSession }

// Func returns the op's ranking function (OpQuery only).
func (op *Op) Func() rankcube.Func { return op.f }

// Funcs returns the session's merge, join and scan functions.
func (s *Session) Funcs() (merge rankcube.Func, join [2]rankcube.Func, scan rankcube.Func) {
	return s.merge, s.join, s.scan
}

// HashOps digests an op list field by field in a fixed order (predicates by
// ascending dimension), so equal hashes mean byte-identical requests.
func HashOps(ops []Op) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	cond := func(c rankcube.Cond) {
		u64(uint64(len(c)))
		for _, d := range c.Dims() {
			u64(uint64(d))
			u64(uint64(c[d]))
		}
	}
	fn := func(f FuncSpec) {
		u64(uint64(f.Kind))
		u64(uint64(f.Dims))
		for _, p := range f.P {
			u64(math.Float64bits(p))
		}
	}
	for i := range ops {
		op := &ops[i]
		u64(uint64(op.Kind))
		cond(op.Cond)
		fn(op.F)
		u64(uint64(op.K))
		for _, v := range op.Sel {
			u64(uint64(v))
		}
		for _, v := range op.Rank {
			u64(math.Float64bits(v))
		}
		u64(uint64(op.TID))
		if s := op.Session; s != nil {
			u64(uint64(s.SkyDim))
			u64(uint64(s.SkyVal))
			u64(uint64(s.ExtraDim))
			u64(uint64(s.ExtraVal))
			fn(s.Merge)
			for i := range s.JoinCond {
				cond(s.JoinCond[i])
				fn(s.JoinF[i])
			}
			cond(s.ScanCond)
			fn(s.ScanF)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
