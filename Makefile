# Tier-1 verification (see ROADMAP.md): `make check` is the gate every
# change must keep green. `make smoke` additionally exercises the
# machine-readable output end to end.

GO ?= go
# WORKERS sets the caratbench worker-pool width for smoke (0 = GOMAXPROCS).
WORKERS ?= 0
# SOAK_SEEDS / SOAK_START parameterize the chaos soak (CI rotates START).
SOAK_SEEDS ?= 8
SOAK_START ?= 1
# FUZZTIME is the per-target budget for the native fuzz targets.
FUZZTIME ?= 20s
# COVER_FLOOR is the minimum total statement coverage (percent) `make
# cover` accepts. Raise it when coverage grows; never lower it.
COVER_FLOOR ?= 75
# LOC_CEILING is the most non-test Go lines `make loc-check` accepts: the
# total `make loc` printed at the last PR that changed it (ROADMAP aim 2's
# tracked metric). A PR that deletes lowers it in the same diff; one that
# must grow the tree raises it and says why in EXPERIMENTS.md.
LOC_CEILING := 25311

.PHONY: all fmt vet build test race debugtest smoke examples results check lint cover soak fuzz serve loadtest loc loc-check densecheck benchmark benchmark-test microbench

all: check

# fmt fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector: the obs registry, the
# runtime's batched escape path, and the mmpolicy daemon are all
# concurrently-accessed shared state.
race:
	$(GO) test -race ./...

# debugtest builds and tests under the caratdebug tag, which turns the
# development assertions on: the pass manager verifies every function after
# every pass and names the pass that broke one (internal/passes/debug_on.go),
# and the runtime walks its allocation-table invariants on the hot path and
# checks every WorstCasePage answer against a walk of the table
# (internal/runtime/debug_on.go). The packages are the ones a compile or a
# guest run goes through, plus every caller of the pick (caratbench's
# experiments, the mmpolicy harness, caratd); a default build compiles
# neither file.
debugtest:
	$(GO) test -tags caratdebug ./internal/ir/ ./internal/analysis/ ./internal/passes/ ./internal/cc/ ./internal/runtime/ ./internal/vm/ ./internal/bench/ ./internal/mmpolicy/ ./internal/server/

# smoke runs the full experiment suite at test scale with -json and
# validates that the output parses and carries a supported schema version.
# The bench output goes through an intermediate file so a caratbench
# failure fails the target — a pipeline would report only validatejson's
# status and mask a crashed bench. The second leg runs the suite's text
# tables twice and requires identical bytes: modeled results are a function
# of module and seed, and this is what notices when one stops being (a map
# iteration order reached Figure 2 and Table 2 once). The third leg starts
# caratbench with a live -http telemetry server, curls /metrics and
# /profile, and validates both (see scripts/smoke_telemetry.sh). The fourth
# boots caratd, posts a module, runs it, scrapes /metrics, drives a small
# load pass, and drains it (see scripts/smoke_server.sh). The last runs the
# examples (make examples).
smoke: build
	$(GO) run ./cmd/caratbench -exp all -scale test -json -workers $(WORKERS) > smoke.json
	$(GO) run ./scripts/validatejson smoke.json
	@rm -f smoke.json
	$(GO) run ./cmd/caratbench -exp all -scale test -workers $(WORKERS) > smoke.1.txt
	$(GO) run ./cmd/caratbench -exp all -scale test -workers $(WORKERS) > smoke.2.txt
	cmp smoke.1.txt smoke.2.txt
	@rm -f smoke.1.txt smoke.2.txt
	sh ./scripts/smoke_telemetry.sh
	sh ./scripts/smoke_server.sh
	$(MAKE) examples

# examples runs every program under examples/, the walkthroughs README
# tells users to run, discarding their output: a non-zero exit fails it.
examples:
	@for e in examples/*/; do \
		echo "go run ./$$e"; \
		$(GO) run ./$$e > /dev/null || exit 1; \
	done

# results regenerates results_small.txt, the committed paper-figure tables:
# every experiment of caratbench at the small scale (≈ 2 min). The tables
# are modeled results, byte-stable run to run and across -workers, so CI
# reruns this and fails on any diff.
results: build
	$(GO) run ./cmd/caratbench -exp all -scale small > results_small.txt.tmp
	mv results_small.txt.tmp results_small.txt

# serve builds and launches caratd in the foreground with the sample
# config (Ctrl-C / SIGTERM drains gracefully). Override the bind with
# SERVE_ADDR=host:port.
SERVE_ADDR ?=
serve: build
	$(GO) run ./cmd/caratd -config configs/caratd.sample.json $(if $(SERVE_ADDR),-addr $(SERVE_ADDR))

# loadtest boots caratd on an ephemeral port, drives LOAD_SESSIONS
# concurrent loadgen sessions (steady + overload legs) against it, writes
# and validates BENCH_server.load.json, then drains the daemon. Fails on
# any digest mismatch, failed request, invariant violation, or if the
# overload leg never saw a 429.
LOAD_SESSIONS ?= 1000
loadtest: build
	sh ./scripts/loadtest.sh $(LOAD_SESSIONS)

# lint runs staticcheck when it is installed (CI always installs it; a
# developer box without it gets a warning, not a failure).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

# cover enforces the coverage floor: total statement coverage must not
# drop below COVER_FLOOR percent.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the floor $(COVER_FLOOR)%"; exit 1; }

# soak runs seeded chaos runs (multi-process churn/defrag/tiering/swap
# under randomized fault schedules): every seed runs twice and requires
# byte-identical replay and zero invariant violations. See scripts/soak.
soak: build
	$(GO) run ./scripts/soak -seeds $(SOAK_SEEDS) -start $(SOAK_START) -out soak.json
	$(GO) run ./scripts/validatejson soak.json

# fuzz runs each native fuzz target for a short budget (the differential
# invariants over generated programs, the IR text round trip, IR text
# executed on both engines, PhysMem's page-dirty map against the
# byte-loop memory model, the page-bucketed allocation table against the
# map-scan model, the in-place region set against sort-and-coalesce,
# arbitrary bytes through the CARAT-C front end, and arbitrary request bodies
# through caratd's handler; seeds replay in plain `make test`).
# FuzzIRRoundTrip's and FuzzIRExecute's seeds are whole kernels, so
# minimising one interesting input at the default 60 s would eat the
# budget: cap it. The two table targets find new coverage every few
# seconds at first, and minimising each find would stall them: cap too.
# The two targets that send what they generate or parse through the pass
# pipeline run under caratdebug, so a pass that leaves a function malformed
# is caught where it ran, on inputs nobody wrote by hand.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIRRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/ir/
	$(GO) test -tags caratdebug -run '^$$' -fuzz FuzzIRExecute -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/vm/
	$(GO) test -tags caratdebug -run '^$$' -fuzz FuzzDifferentialPipeline -fuzztime $(FUZZTIME) ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzDifferentialMoves -fuzztime $(FUZZTIME) ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzGuardsAgreeOnForgedPointers -fuzztime $(FUZZTIME) ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzGroupMoves -fuzztime $(FUZZTIME) ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzPhysMemDirty -fuzztime $(FUZZTIME) ./internal/kernel/
	$(GO) test -run '^$$' -fuzz FuzzAllocationTable -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/runtime/
	$(GO) test -run '^$$' -fuzz FuzzRegionSet -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/guard/
	$(GO) test -run '^$$' -fuzz FuzzCCCompile -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/cc/
	$(GO) test -run '^$$' -fuzz FuzzRunRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/server/

# loc prints non-test Go lines per package and their total, excluding the
# frozen benchmark/ module (ROADMAP: non-test LOC is a tracked metric and
# should fall).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# loc-check fails when that total is above LOC_CEILING.
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	echo "non-test Go lines: $$total (ceiling $(LOC_CEILING))"; \
	[ "$$total" -le $(LOC_CEILING) ] || \
		{ echo "non-test Go LOC $$total is above the ceiling $(LOC_CEILING): delete, or raise LOC_CEILING and say why"; exit 1; }

# densecheck fails if a non-test file of the analyses or the passes spells a
# map type keyed by a block, an instruction or an ir.Value: per-function tables
# there are slices indexed by ir.Block.Idx and ir.Instr.ID (DESIGN.md "Dense
# numbering"), and this keeps them from turning back into hash tables one map
# at a time. A comment that spells such a type trips it too: describe it.
densecheck:
	@out=$$(grep -n 'map\[\*ir\.\|map\[ir\.Value\]' $$(ls internal/analysis/*.go internal/passes/*.go | grep -v _test.go)); \
	if [ -n "$$out" ]; then \
		echo "pointer-keyed map in internal/analysis or internal/passes (index a slice by Block.Idx / Instr.ID):"; echo "$$out"; exit 1; \
	fi

# benchmark runs the repository benchmark (BENCHMARK.json: four workloads,
# end-to-end metrics in reference-host time; see benchmark/README.md).
# benchmark-test vets and tests the nested benchmark/ module, which
# `go build ./... && go test ./...` at the root does not reach: a rename of
# a symbol its adapter freezes fails here.
benchmark:
	bash benchmark/run.sh

benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# microbench runs every host-time micro-benchmark of the kernel, runtime,
# guard and passes packages, the VM's heap rebase, tier-up, access step, block
# dispatch (BenchmarkBlockDispatch), the three engine legs over the exec
# kernel (BenchmarkExec), eight exec-kernel processes as one group
# (BenchmarkGroup), the xcache census of the 22 kernels at ScaleTest
# (BenchmarkXCacheCensus), and caratd's cached request
# (BenchmarkHotRequest), once each: not a measurement (use -benchmem -count N
# for that; EXPERIMENTS.md and docs/experiments/ have the numbers), a check
# that they still build, set up and run.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/kernel/ ./internal/runtime/ ./internal/guard/ ./internal/passes/
	$(GO) test -run '^$$' -bench 'BenchmarkHeapRebase|BenchmarkTierUp|BenchmarkAccessStep|BenchmarkBlockDispatch|BenchmarkExec|BenchmarkGroup|BenchmarkXCacheCensus' -benchtime 1x ./internal/vm/
	$(GO) test -run '^$$' -bench 'BenchmarkHotRequest' -benchtime 1x ./internal/server/

check: fmt vet build loc-check densecheck test race
