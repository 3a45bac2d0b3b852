package framework

// Facts, in the go/analysis sense: durable observations one package's
// analysis exports so the analysis of downstream packages can consult them.
// The canonical use is atomicmix — "this struct field is accessed via
// sync/atomic" is established where the atomic call lives and must be
// visible from every package that touches the field.
//
// Unlike the upstream framework, facts are never serialized: the loader
// type-checks every analyzed package in one process against one shared
// types universe, so a fact can be keyed directly on the types.Object
// identity and looked up from any later package. The driver runs packages
// in dependency order (go list -deps order), which means facts flow
// strictly forward: a package sees facts exported by its dependencies, not
// by its dependents — the same visibility rule the upstream modular
// drivers guarantee.

import (
	"go/types"
	"reflect"
)

// A Fact is an analyzer-defined datum attached to an object.
// Concrete fact types must be pointers, and implement AFact as a marker.
// Each analyzer sees only its own facts: the driver gives every analyzer a
// private FactStore.
type Fact interface{ AFact() }

type objFactKey struct {
	obj types.Object
	typ reflect.Type
}

// A FactStore carries one analyzer's facts across the packages of a run.
// It is not safe for concurrent use; the driver runs packages serially (in
// dependency order) per analyzer.
type FactStore struct {
	obj map[objFactKey]Fact
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore {
	return &FactStore{obj: make(map[objFactKey]Fact)}
}

// factType validates a fact's dynamic type (a non-nil pointer) and returns
// its reflect key.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		//lint:invariant analyzer bug, not input-dependent: fact types are fixed at compile time
		panic("framework: facts must be pointers")
	}
	return t
}

// ExportObjectFact associates fact with obj for the rest of the analyzer's
// run. Overwrites any previous fact of the same type on the same object.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || p.Facts == nil {
		return
	}
	p.Facts.obj[objFactKey{obj, factType(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's type previously exported for
// obj (by this package or any already-analyzed dependency) into fact and
// reports whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || p.Facts == nil {
		return false
	}
	stored, ok := p.Facts.obj[objFactKey{obj, factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}
