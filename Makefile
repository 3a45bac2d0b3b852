# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet fmt-check no-deprecated loc lint lint-json test race poison chaos fuzz bench-check traffic check bench bench-json ab clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt over the whole tree, the nested benchmark module included, must have
# nothing to say.
fmt-check:
	@out="$$(gofmt -l .)"; [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

# One generation of API: nothing outside the benchmark is marked deprecated,
# because a superseded form is deleted, not kept beside its successor.
no-deprecated:
	@! git grep -n 'Deprecated:' -- '*.go' ':!benchmark' || { echo "delete the deprecated form instead of marking it"; exit 1; }

# Non-test lines of Go outside the benchmark module: the number ROADMAP aim 2
# ("the least code") is held to, in total, for the root package, and per
# command and internal package. A PR under ROADMAP item 1, 2 or 9 quotes it
# before and after; the last two lines are item 2's sum, internal/sigcube +
# internal/skyline + internal/indexmerge, and item 9's, internal/bench +
# internal/baselines + cmd/rankbench.
LOC_FILES = find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path '*/testdata/*'
loc:
	@echo "total $$($(LOC_FILES) | xargs cat | wc -l)"
	@echo "root  $$(ls *.go | grep -v _test.go | xargs cat | wc -l)"
	@for d in cmd/*/ examples internal/*/; do \
		printf '%-28s %s\n' "$${d%/}" "$$($(LOC_FILES) -path "./$${d%/}/*" | xargs cat | wc -l)"; \
	done
	@echo "item 2 (sigcube + skyline + indexmerge) $$($(LOC_FILES) \( -path './internal/sigcube/*' -o -path './internal/skyline/*' -o -path './internal/indexmerge/*' \) | xargs cat | wc -l)"
	@echo "item 9 (bench + baselines + rankbench) $$($(LOC_FILES) \( -path './internal/bench/*' -o -path './internal/baselines/*' -o -path './cmd/rankbench/*' \) | xargs cat | wc -l)"

# rankvet (cmd/rankvet, analyzers in internal/analysis) mechanically
# enforces the engine safety invariants the types cannot: no raw panics,
# threaded contexts (struct stashes included), typed errors at the public
# boundary, consumed guard release closures, and typed atomics. -stats
# surfaces per-analyzer wall clock and the loader's export-data cache
# hit/miss counts, so a cache regression (stdlib re-type-checks creeping
# back) is visible in CI logs.
lint:
	$(GO) run ./cmd/rankvet -stats ./...

# Machine-readable findings: one JSON object per line on stdout
# (file/line/col/analyzer/message), for editors and CI annotators.
lint-json:
	$(GO) run ./cmd/rankvet -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The tests of the packages whose queries and writes reuse storage, built with
# the poison tag (internal/poison): the storage a query takes from a pool — a
# view's runs, leaf index, arena and replay queue, the signature search's
# record, answer and bound (ranking.Bound's covered positions, program,
# stacks, and the box and point it widens an entry into), the skyline
# search's covered positions, corners, pruned SIDs and scratch, an index-merge
# Merger's arenas and tuple table, the grid cube's execution state — and what
# a signature write decodes into — the encoder's nodes, Kids slots, arena and
# replay queue — is filled with sentinels (NaN scores, SIDs, TIDs and
# positions out of range, all-ones bit words, garbage leaves and nodes) before
# it is reset, and a freed page's buffer with garbage bytes, so a reset that
# forgets a field, or a page read past its Free, shows as a wrong answer, count
# or page.
poison:
	$(GO) test -tags poison -count=1 ./internal/heap ./internal/bitvec ./internal/pager ./internal/ranking ./internal/signature ./internal/sigcube ./internal/gridcube ./internal/skyline ./internal/indexmerge .

# Seeded, bounded serving-chaos run (internal/chaos) under the race
# detector: concurrent query storms + online maintenance + scripted
# corruption/repair, asserting typed outcomes, exact crosschecks, and
# half-open re-admission. Override the seed with CHAOS_SEED=… (the harness
# default is seed 1).
chaos:
	$(GO) test -race -count=1 -run 'TestChaos$$' ./internal/chaos -v

# A few seconds of each native fuzz target over a page decoder — the
# partial-signature ones (a View's load and its deferred leaf-level decodes,
# Encoder.Decode), the grid cube's compressed cell lists (decodeEntries /
# decodeBlock) and the node array codec under them all (bitvec.Codec.Decode /
# DecodeIn / Skip) — on arbitrary page bytes: a typed ErrPageCorrupt or a
# value, never a raw panic. Then the bound kernel (ranking.Bound): over a
# function of each family drawn from the seed, a constrained one and a
# wrapper, on indexes covering them or short of one attribute, and an entry
# holding the fuzzed coordinate, the bound scores bit for bit as LowerBound
# and Eval of the entry widened to the full width. The seed
# corpora (internal/signature/testdata/fuzz, f.Add in the other targets) run
# with the ordinary tests as well.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzViewDecode$$' -fuzztime $(FUZZTIME) ./internal/signature
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntries$$' -fuzztime $(FUZZTIME) ./internal/gridcube
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDecode$$' -fuzztime $(FUZZTIME) ./internal/bitvec
	$(GO) test -run '^$$' -fuzz '^FuzzBoundKernel$$' -fuzztime $(FUZZTIME) ./internal/ranking

# The benchmark is a nested module (benchmark/go.mod), so ./... above does
# not descend into it and an internal change that stops it compiling would
# go unnoticed: build both of its programs — the end-to-end runner and the
# layer tracer, the only importer of rankcube/internal/... — then vet, test
# and rankvet all of its packages (the tracer's probe consumes a guard
# release closure, which lockorder checks). One test is skipped by name: two
# sanity assertions of TestTracedPassReproducesUntraced pin behaviour the
# engine no longer has (a signature store that only grows under writes —
# rewritten cells now free their old pages, so
# signature.bytes_appended_per_write is ~0 and negative at the test's 1/100
# scale; node access through the materializing Children/LeafEntries the
# tracer counts — the search reads entries a slot at a time, so
# hindex.node_calls is 0 on sig-topk), and benchmark/ is not this
# repository's to edit outside a benchmark change.
# What that test is for — the traced twin answers every request like the
# public path and charges the same reads — is checked at full scale instead
# by running the tracer itself on all four workloads.
bench-check:
	cd benchmark && $(GO) build -o /dev/null . && $(GO) build -o /dev/null ./layertrace
	cd benchmark && $(GO) vet ./... && $(GO) test -skip '^TestTracedPassReproducesUntraced$$' ./...
	cd benchmark && $(GO) run rankcube/cmd/rankvet ./...
	@for w in sig-topk grid-serve sig-churn analytic-mix; do \
		echo "traced pass: $$w"; \
		bash benchmark/run.sh --workload $$w --seed 1 --trace 1 | grep -q '^{"correct":true,"attempted":[0-9]*,"failed":0,' \
			|| { echo "traced pass of $$w does not reproduce the public path"; exit 1; }; \
	done

# Which code the benchmark and the paper experiments reach, held to a
# ratchet: the end-to-end runner (built with run.sh's environment) and
# rankbench, both built with coverage of every rankcube package, run under one
# GOCOVERDIR (3 s of each workload, every experiment at scale 0.01). Every
# function none of them entered — commands, examples, the linter and the
# benchmark module, the instrument itself, aside — must have a line in
# traffic.allow (function, class, reason). `go tool covdata func` names a
# generic method without its receiver, so the receiver is read off the source
# line it points at: heap.*Heap.Len and heap.*Bounded.Len are two functions,
# as *GridCube.Stores and *SignatureCube.Stores are. The target prints the unreached
# functions the list does not name, with their count, and the entries that
# name a function now reached or no function at all, and fails on either: a
# new unreached function needs a measured path or a reason, and the list only
# shrinks. One to two minutes; not part of check.
TRAFFIC = $(CURDIR)/.bench_build/traffic
BENCH_ENV = GOCACHE=$(CURDIR)/.bench_build/gocache GOTOOLCHAIN=local GOPROXY=off GOWORK=off
traffic:
	rm -rf $(TRAFFIC) && mkdir -p $(TRAFFIC)/cover
	cd benchmark && $(BENCH_ENV) $(GO) build -cover -coverpkg=rankcube/... -o $(TRAFFIC)/benchmark .
	$(BENCH_ENV) $(GO) build -cover -coverpkg=rankcube/... -o $(TRAFFIC)/rankbench ./cmd/rankbench
	@for w in sig-topk grid-serve sig-churn analytic-mix; do \
		echo "traffic: $$w"; \
		GOCOVERDIR=$(TRAFFIC)/cover $(TRAFFIC)/benchmark --workload $$w --seed 1 --seconds 3 --trace 0 > /dev/null || exit 1; \
	done
	@echo "traffic: rankbench -all"
	@GOCOVERDIR=$(TRAFFIC)/cover $(TRAFFIC)/rankbench -all -scale 0.01 -queries 3 > /dev/null
	@$(GO) tool covdata func -i $(TRAFFIC)/cover \
		| grep -v -e '^total' -e '^rankcube/cmd/' -e '^rankcube/examples/' -e '^rankcube/internal/analysis/' -e '^rankcube/benchmark/' \
		| awk '{ split($$1, at, ":"); name = $$2; pkg = at[1]; sub(/\/[^\/]*$$/, "", pkg); \
			if (name !~ /\./) { src = at[1]; sub(/^rankcube\//, "", src); \
				if (!(src in seen)) { seen[src] = 1; n = 0; while ((getline line < src) > 0) text[src, ++n] = line; close(src) } \
				if (match(text[src, at[2]], /^func \([^)]*\)/)) { \
					recv = substr(text[src, at[2]], 7, RLENGTH - 7); sub(/^[^ *[]+ /, "", recv); sub(/\[.*/, "", recv); name = recv "." name } } \
			print pkg "." name, $$NF }' | LC_ALL=C sort > $(TRAFFIC)/funcs
	@awk '$$2 == "0.0%" { print $$1 }' $(TRAFFIC)/funcs > $(TRAFFIC)/unreached
	@awk '!/^#/ && NF { print $$1 }' traffic.allow | LC_ALL=C sort > $(TRAFFIC)/allowed
	@LC_ALL=C comm -23 $(TRAFFIC)/unreached $(TRAFFIC)/allowed > $(TRAFFIC)/unlisted
	@LC_ALL=C comm -13 $(TRAFFIC)/unreached $(TRAFFIC)/allowed > $(TRAFFIC)/stale
	@echo "traffic: $$(wc -l < $(TRAFFIC)/unreached) unreached, $$(wc -l < $(TRAFFIC)/unlisted) not in traffic.allow"
	@sed 's/^/  /' $(TRAFFIC)/unlisted
	@echo "traffic: $$(wc -l < $(TRAFFIC)/stale) stale traffic.allow entries"
	@awk 'NR == FNR { known[$$1] = 1; next } { print "  " $$1, ($$1 in known ? "(now reached)" : "(no such function)") }' $(TRAFFIC)/funcs $(TRAFFIC)/stale
	@[ ! -s $(TRAFFIC)/unlisted ] && [ ! -s $(TRAFFIC)/stale ]

check: build vet fmt-check no-deprecated lint race poison chaos fuzz bench-check

# Quick smoke of the benchmark harness (full runs via cmd/rankbench).
bench:
	$(GO) run ./cmd/rankbench -exp fig3.4 -scale 0.02 -queries 3

# Perf-trajectory snapshot: run the canonical root benchmarks and record
# them as BENCH_<short-hash>.json so future PRs can diff against this
# commit. Override the set with BENCH_PATTERN='Fig5_|PublicAPI' etc. The
# skyline rows also carry reads/op, states-generated/op and peak-heap, the
# churn row the signature pages read per write and the store's pages, the
# grid row its cuboid and base-block-table reads per query, the merge row its
# reads, states generated and peak heap, the signature rows their reads (the
# conjunction row the partition's and the signatures' apart). Every benchmark
# runs a fixed BENCHTIME iterations (default 200x): the PublicAPI_* rows cycle
# through a request mix, so their per-op reads depend on the iteration count,
# and two snapshots compare reads only when both ran the same prefix.
BENCH_PATTERN ?= Fig3_04|Fig3_10|Fig4_11|Fig4_12|Table5_1|Fig5_07|Fig5_10|Fig5_14|Fig7_03|Fig7_05|PublicAPI
BENCHTIME ?= 200x
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -commit "$$(git rev-parse --short HEAD)" \
			-out "BENCH_$$(git rev-parse --short HEAD).json"

# A/B evidence for a change (ab.sh): the working tree against PARENT on the
# benchmark's end-to-end pass, runs interleaved seed by seed, judged by
# benchmark/compare, printed as a table of at most 20 lines.
#   make ab PARENT=<rev> [WORKLOADS="sig-topk grid-serve"] [SEEDS="1 2 3"] [PARENT_DIR=<checkout of rev>]
WORKLOADS ?= sig-topk grid-serve sig-churn analytic-mix
SEEDS ?= 1 2 3
ab:
	@[ -n "$(PARENT)" ] || { echo "usage: make ab PARENT=<rev> [WORKLOADS=...] [SEEDS=...] [PARENT_DIR=...]"; exit 2; }
	@WORKLOADS="$(WORKLOADS)" SEEDS="$(SEEDS)" PARENT_DIR="$(PARENT_DIR)" bash ab.sh "$(PARENT)"

clean:
	$(GO) clean ./...
