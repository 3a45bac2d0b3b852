// Package analysis hosts rankvet, the repository's custom static-analysis
// suite. It mechanically enforces the safety invariants the robustness and
// concurrent-serving layers depend on, so they hold by construction rather
// than by review:
//
//   - rawpanic: no raw panic outside internal/errs. Recoverable faults
//     travel as typed aborts (errs.Abort/Abortf) so the public API boundary
//     can convert them to errors; programmer-error assertions that should
//     crash carry a //lint:invariant <reason> marker.
//   - ctxflow: context flows down from the caller. Library packages (the
//     root package rankcube and rankcube/internal/...) must not mint
//     context.Background() or context.TODO(), and neither may any function
//     that already has a context in scope — except the blessed
//     nil-fallback assignment `ctx = context.Background()`. A named context
//     parameter that the body never consults is flagged (rename it _ if
//     truly unused), as is a context stashed in a struct field without a
//     //lint:ctxfield <reason> marker, or read back from a field while a
//     live caller ctx is in scope.
//   - governedio: every page read is charged to the query's stats.Counters.
//     Store.ReadRaw, and governed accessors called with a nil counter,
//     bypass budget/cancellation enforcement and are flagged unless marked
//     //lint:ungoverned <reason> (legitimate for size accounting and
//     rebuild bookkeeping).
//   - errwrap: errors created in the public root package must %w-wrap a
//     typed sentinel so callers can errors.Is them against the exported
//     taxonomy; bare errors.New / unwrapped fmt.Errorf are flagged.
//   - lockorder: direct (*guard.RW).Lock/RLock must be released by an
//     immediately following defer (engine faults travel as panics — a
//     non-deferred release is one storage fault from wedging the cube),
//     a frame may lock at most one control directly (multi-control
//     operations go through guard.AcquireShared/LockExclusive, which
//     enforce the global ID order), and the release closures those
//     helpers return must be consumed. Marker: //lint:lockorder.
//   - atomicmix: no call to a package-level function of sync/atomic.
//     Shared counters are typed atomics (atomic.Int64 and friends), which
//     cannot be read or written plainly, so no field is ever accessed both
//     atomically and plainly. Marker: //lint:atomicmix.
//
// Markers are ordinary //lint:<name> <reason> comments attached to the
// statement (or struct field, or declaration spec) they document, via the
// standard doc/trailing comment association. Attachment is by AST node,
// not source line: reformatting a statement across lines moves the marker
// with it, and a marker can never bless a region broader than one
// statement. The reason is mandatory in spirit: it is the reviewable
// justification for the exemption.
//
// The suite is self-hosted: subpackage framework reimplements the minimal
// Analyzer/Pass/Diagnostic surface of golang.org/x/tools/go/analysis
// (unvendorable in this environment). Every analyzer looks at one package
// at a time. Packages under analysis are type-checked from source, while
// the dependency cone (the stdlib closure above all) is imported
// from compiler export data materialized by `go list -deps -export` in the
// go build cache. That cache is keyed per toolchain, which makes it
// rankvet's type-information cache too: a warm run skips stdlib
// type-checking entirely (`rankvet -stats` shows the hit/miss split).
// Subpackage analysistest runs an analyzer over GOPATH-style fixture trees
// under testdata/src and checks diagnostics against `// want "regexp"`
// comments, mirroring the upstream analysistest contract — including
// failing on unmatched want comments, so every fixture proves its analyzer
// actually fires.
//
// cmd/rankvet is the driver; `make lint` (folded into `make check`) runs
// it over ./... with -stats and fails the build on any finding, and
// `make lint-json` emits one JSON object per finding for tooling.
package analysis
