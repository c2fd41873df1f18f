GO ?= go

# Per-target budget for the CI fuzz smoke (FUZZTIME=5s for a quick local run).
FUZZTIME ?= 30s

# Minimum total statement coverage `make cover` accepts. The repo measures
# 75.7% as of the aimd daemon change (the new server package and the aimd
# main are counted; the full fleet suite is env-gated out of plain
# `go test`); the floor sits just below to absorb counting noise while still
# catching real coverage regressions.
COVER_BASELINE ?= 75.2

# Maximum non-test Go lines outside bench/ that `make loc` accepts — the
# ROADMAP's tracked number (aim 2: it should go down). Set to the tree's
# measured count; a PR that grows past it must delete something or argue
# the new ceiling in review.
LOC_CEILING ?= 23947

.PHONY: check vet build test race benchmodule examplesmoke loc benchsmoke metricssmoke telemetrysmoke benchstorage benchstoragesmoke benchexec benchexecsmoke bench fuzzsmoke faultsuite scenariosuite servesuite servesoak cover clean

# check is the tier-1 gate: everything here must pass before a change lands.
check: vet build race benchmodule examplesmoke loc benchsmoke metricssmoke telemetrysmoke benchstoragesmoke benchexecsmoke

# vet also fails on any Go file gofmt would rewrite.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench/ is its own module (BENCHMARK.json's harness), invisible to the root
# `go build ./...`, and it builds server.Tuner literals and calls the
# collector, shadow gate and monitor directly — a refactor that breaks it
# must fail here, not in the benchmark pipeline.
benchmodule:
	cd bench && $(GO) vet . && $(GO) test .

# Runs the one example end to end — workload, one gated tuning cycle, the
# workload again — and fails unless it reports an adoption, so it cannot rot
# behind `go build` alone.
examplesmoke:
	@out=$$($(GO) run ./examples/quickstart) || exit 1; echo "$$out"; \
	echo "$$out" | grep -q '^adopted: ' || { echo "examples/quickstart adopted nothing"; exit 1; }

# Size gate: non-test Go lines outside bench/ must not exceed LOC_CEILING.
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l); \
	echo "non-test Go lines: $$n (ceiling $(LOC_CEILING))"; \
	[ "$$n" -le "$(LOC_CEILING)" ] || { echo "non-test Go lines $$n exceed the $(LOC_CEILING) ceiling"; exit 1; }

# One iteration of each advisor benchmark as a smoke test — exercises the
# full pipeline (candidates, cache, parallel costing) without the cost of a
# real benchmarking run — and of BenchmarkNormalize, which every served
# statement pays once. '^$$' skips unit tests; only benchmarks execute.
benchsmoke:
	$(GO) test -run '^$$' -bench BenchmarkAdvisor -benchtime 1x .
	$(GO) test -run '^$$' -bench BenchmarkNormalize -benchtime 1x ./internal/sqlparser/

# Observability + failpoint + audit overhead gate: a fully instrumented
# advisor run must stay within 5% of an uninstrumented one, an advisor run
# with failpoints armed-but-unmatched within 1% of one with injection off,
# and a run with the audit journal attached plus a live /metricsz scraper
# within 5% of a bare run. Wall-clock sensitive, so all three are env-gated
# out of plain `go test ./...`.
metricssmoke:
	AIM_METRICS_SMOKE=1 $(GO) test -run 'TestMetricsOverheadSmoke|TestFailpointOverheadSmoke|TestAuditOverheadSmoke' ./internal/core/
	AIM_METRICS_SMOKE=1 $(GO) test -run TestRecorderOverheadSmoke ./internal/server/

# Telemetry server smoke: boots a real loopback server and validates
# /metricsz (exposition format), /statusz (JSON sections), /healthz and
# /debug/pprof over actual TCP. Env-gated because it binds a socket.
telemetrysmoke:
	AIM_TELEMETRY_SMOKE=1 $(GO) test -run TestTelemetrySmoke -v ./internal/telemetry/

# Short budgeted runs of every native fuzz target: the bulk-load/merge/DNF
# equivalence properties, the failpoint spec parser, the index handoff's
# catch-up against a fresh build, the memoised planner against the one-shot
# one, the key walk's skip against encode and decode, the tagged Value against
# its field-per-payload oracle, the buffered frame stream against
# one-at-a-time reads, the statement digest's template against the parser's,
# a recorded baseline against its replay at the same stamp, handed-out B-tree
# keys against later writes and clones, every batch predicate kernel's lanes
# against the row closure, batched B-tree lookups against Get and a map.
# Go allows one -fuzz pattern per invocation, hence one line per target.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz 'FuzzBulkLoadEquivalence$$' -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz 'FuzzCOWSnapshotEquivalence$$' -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz 'FuzzMergeCandidatesPairwise$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzDNFSemanticEquivalence$$' -fuzztime $(FUZZTIME) ./internal/queryinfo/
	$(GO) test -run '^$$' -fuzz 'FuzzFailpointSpec$$' -fuzztime $(FUZZTIME) ./internal/failpoint/
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioDeterminism$$' -fuzztime $(FUZZTIME) ./internal/scenarios/
	$(GO) test -run '^$$' -fuzz 'FuzzExecScanOracle$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz 'FuzzWireFrame$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz 'FuzzFrameStream$$' -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz 'FuzzAdoptCatchUp$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz 'FuzzPreparedEqualsOneShot$$' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzSkipKey$$' -fuzztime $(FUZZTIME) ./internal/sqltypes/
	$(GO) test -run '^$$' -fuzz 'FuzzValueSemantics$$' -fuzztime $(FUZZTIME) ./internal/sqltypes/
	$(GO) test -run '^$$' -fuzz 'FuzzDigestEqualsParse$$' -fuzztime $(FUZZTIME) ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz 'FuzzRecordedBaseline$$' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz 'FuzzKeyStability$$' -fuzztime $(FUZZTIME) ./internal/btree/
	$(GO) test -run '^$$' -fuzz 'FuzzVecKernels$$' -fuzztime $(FUZZTIME) ./internal/exec/
	$(GO) test -run '^$$' -fuzz 'FuzzGetBatch$$' -fuzztime $(FUZZTIME) ./internal/btree/

# The fault matrix: the seven scenarios at full length with every loop
# failpoint armed at 1%, 5% and 20% (fixed seeds) and then drained, asserting
# zero ungated adoptions, the per-cycle catalog/store invariants, the
# profiles' stability bounds, no shadow snapshot left live, the fault-free
# run's final index set, and that every armed site fires at every rate; then
# the same matrix live over loopback TCP at the reduced lengths, equal to the
# offline one.
faultsuite:
	AIM_SCENARIO_SUITE=1 $(GO) test -run TestScenariosUnderFaults -v ./internal/experiments/

# The scenario acceptance sweep: seven seeded workload scenarios (diurnal mix
# shifts, flash crowds, mid-stream migration, drifting range predicates,
# write-amplification traps, the §VI-D code push + data surge, the serve
# suite's read-only fleet) run at their full cycle counts, asserting bounded
# adopt/revert flips, bounded time-to-revert after each trap, zero ungated
# adoptions and a reconstructable audit lineage for every
# adopted-then-reverted index. TestScenariosLive then reruns all seven at full
# length against a real server over loopback TCP (Advance under the write
# gate) at one advisor worker count and holds the live result to the same
# bounds, to the offline rendering, verdict lines and normalized journal, to
# a complete adoption lineage and to its per-round metrics.
scenariosuite:
	AIM_SCENARIO_SUITE=1 $(GO) test -run 'TestTuningLoopUnderScenarios|TestScenarioExplainGoldenDrift|TestScenariosLive' -v ./internal/experiments/

# Live-serving acceptance suite: TestServeSuite, the fleet scenario (16
# concurrent sessions over TCP against a real server on loopback) through the
# live scenario suite's checks under the race detector at its reduced length,
# at advisor workers {1,2,4}. Asserts zero statement errors, a clean drain, zero ungated
# adoptions, complete adoption lineage, the per-round metrics, and verdicts,
# journals and adopted index sets byte-identical to the offline run of the
# same scenario and seed, hence across worker counts.
servesuite:
	AIM_SERVE_SUITE=1 $(GO) test -race -run TestServeSuite -v ./internal/experiments/

# Nightly soak variant: the same at the fleet profile's full length (40 tuned
# rounds), which leaves the last run's normalized decision journal behind as
# aimd-soak.jsonl and the registry's /metricsz exposition after every round
# ("# round N" blocks) as aimd-soak-metrics.prom for the artifact upload.
servesoak:
	AIM_SCENARIO_SUITE=1 AIM_SERVE_SUITE=1 AIM_SERVE_JOURNAL=$(CURDIR)/aimd-soak.jsonl AIM_SERVE_METRICS=$(CURDIR)/aimd-soak-metrics.prom $(GO) test -race -run TestServeSuite -v ./internal/experiments/

# Coverage gate: full-repo statement coverage must not drop below
# COVER_BASELINE. Writes coverage.out + coverage.html at the repo root.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v f="$(COVER_BASELINE)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below the $(COVER_BASELINE)% floor"; exit 1; }

# Storage fast-path benchmarks (bulk tree construction, shadow clones) vs
# their incremental-Put baselines at 100k rows, and adopting a snapshot-built
# index vs building it; writes BENCH_storage.json at the repo root. Wall-clock sensitive, so the report run is env-gated.
benchstorage:
	AIM_BENCH_STORAGE=1 $(GO) test -run TestBenchStorageReport -v ./internal/storage/

# One iteration of each storage fast-path benchmark as a smoke test (no
# baselines, no report) — keeps `make check` fast while still exercising the
# bulk clone/build paths, the index handoff and the clustered and index
# lookups end to end.
benchstoragesmoke:
	$(GO) test -run '^$$' -bench 'BenchmarkStoreClone$$|BenchmarkBuildIndex$$|BenchmarkAdoptIndex$$|BenchmarkClusteredGet$$|BenchmarkIndexFetch$$' -benchtime 1x ./internal/storage/

# Executor benchmark: the batch driver against the tuple-at-a-time reference
# interpreter (internal/exec/reference_test.go) on a 100k-row products
# workload, its join templates on a 20k-row products database without
# indexes (the shadow gate's baseline shape) and tune_narrow's two filtered
# full scans of a 50k-row events table without indexes, with a
# statement-level parity gate before any timing, and planning on a memo hit
# against one-shot planning (plan.oneshot_ns / plan.prepared_ns over the two
# point_read templates). Writes BENCH_exec.json at the repo root and fails
# under 2x on single-table replay, under 1.2x on index joins, under 2.5x on
# unindexed joins, under 2.5x on unindexed filtered scans or under 2x
# prepared vs one-shot. Wall-clock sensitive, so the report run is env-gated.
benchexec:
	AIM_BENCH_EXEC=1 $(GO) test -run TestBenchExecReport -v ./internal/exec/

# Scaled-down exec benchmark (2k rows, 8+2+2 statements) — runs the full
# parity-gate + measure pipeline in a few seconds for `make check` — and one
# iteration of each plan benchmark.
benchexecsmoke:
	$(GO) test -run TestExecBenchSmoke -v ./internal/exec/
	$(GO) test -run '^$$' -bench 'BenchmarkPlanOneShot$$|BenchmarkPlanPrepared$$' -benchtime 1x ./internal/exec/

bench:
	$(GO) test -run '^$$' -bench . -benchtime 3x .

clean:
	$(GO) clean ./...
