GO ?= go

.PHONY: all ci vet lint lint-json lint-sarif lint-golden build test test-short race chaos fuzz-short soak soak-short bench bench-smoke parallel-report telemetry-report large-report sessions-report

all: vet lint build test race

# The aggregate pre-merge gate: everything `all` runs, ordered so the
# cheap fast-failing steps (build, vet, lint — including the
# whole-program plaintaint/keyscope/cttaint/conccheck analysis) come before the
# test suites, plus a -short -race pass over the full module, the
# tiny-row medbench sweep that guards the BENCH JSON schema, a short
# run of every native fuzz target, and the compressed chaos soak that
# gates the query-lifecycle recovery contract.
ci: build vet lint test race test-short bench-smoke fuzz-short soak-short

vet:
	$(GO) vet ./...

# Crypto-invariant static analysis (cmd/seclint): the package-mode
# analyzers (weakrand, subtlecmp, secretfmt, errdrop, rawexp, rawrecv)
# over every module package, then the whole-program analyzers
# (plaintaint, keyscope, cttaint, conccheck) over the combined call
# graph, gated on the audited exceptions in seclint.allow. Non-zero
# exit on any finding.
lint:
	$(GO) run ./cmd/seclint

# Machine-readable findings for tooling; same gate, JSON array output.
lint-json:
	$(GO) run ./cmd/seclint -json

# SARIF 2.1.0 log for code-scanning dashboards; same gate.
lint-sarif:
	$(GO) run ./cmd/seclint -sarif

# Fails if any analyzer's rendered messages drift from the pinned
# goldens under internal/seclint/testdata/golden/ — wording changes
# must be deliberate (regenerate with `go test ./internal/seclint/
# -run TestGoldenMessages -update` and review the diff).
lint-golden:
	$(GO) test -count=1 -run TestGoldenMessages ./internal/seclint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast race-checked sweep over the whole module (skips the expensive
# whole-module type-checking tests, which `test` already runs).
test-short:
	$(GO) test -short -race ./...

# The concurrency safety gate: the full module under the race detector
# — the mediation protocols, the session mux (including the
# >=32-interleaved-sessions stress test), the worker pool, the
# resilience orchestration and every other package; nothing
# concurrency-relevant can sit outside the sweep.
race:
	$(GO) test -race ./...

# The resilience gate (docs/RESILIENCE.md): every protocol under every
# fault class on the fixed seed — including per-session faults on a
# shared multiplexed link — the mid-protocol crash matrix and the
# timeout-attribution tests, race-checked and leak-checked. Override the
# fault schedule with CHAOS_SEED=<uint64> to explore other positions.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestSourceCrash|TestSilent|TestMediatorCrash' ./internal/mediation
	$(GO) test -race -count=1 ./internal/session

# Every native fuzz target, FUZZTIME each (go test -fuzz takes one
# target in one package per run). Crashers land in the package's
# testdata/fuzz/ and fail the run.
FUZZTIME ?= 5s
FUZZ_TARGETS = \
	internal/crypto/hybrid:FuzzUnmarshalCiphertext \
	internal/crypto/modexp:FuzzExpConstantTime \
	internal/pm:FuzzUnpack \
	internal/relation:FuzzDecodeValue \
	internal/relation:FuzzDecodeTupleSet \
	internal/relation:FuzzReadCSV \
	internal/sqlparse:FuzzParse \
	internal/transport:FuzzTCPFrame

fuzz-short:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) ./$${t%%:*}; \
	done

# The query-lifecycle recovery gate (docs/RESILIENCE.md): the full chaos
# soak — retry orchestration, per-peer circuit breakers, admission
# overload and graceful drain on a live TCP deployment under seeded
# faults and source kill/restart. Fails on any invariant violation and
# regenerates BENCH_soak.json. `soak-short` is the compressed variant
# wired into `ci`.
soak:
	$(GO) run ./cmd/medbench -table soak

soak-short:
	$(GO) test -count=1 -run TestSoakShort ./cmd/medbench

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Tiny-row run of every medbench table, asserting the BENCH JSON schema
# (cores/gomaxprocs runner fields, commutative_engine entry, large-table
# shape). Guards the artifact contract, not performance numbers.
bench-smoke:
	$(GO) test -count=1 -run TestBenchSmoke ./cmd/medbench

# Regenerates BENCH_parallel.json (worker-pool + fixed-base speedups).
parallel-report:
	$(GO) run ./cmd/medbench -table parallel

# Regenerates BENCH_phases.json (per-phase × per-party cost breakdown
# from telemetry spans) and prints the human-readable table.
telemetry-report:
	$(GO) run ./cmd/medbench -table phases

# Regenerates BENCH_large.json: the TPC-H-shaped orders⋈customer workload
# through every secure protocol. SCALE=1 is the realistic 150k/1.5M-row
# setting; the default keeps the run in minutes on one core.
SCALE ?= 0.01
large-report:
	$(GO) run ./cmd/medbench -table large -scale $(SCALE)

# Regenerates BENCH_sessions.json: concurrent-clients throughput of the
# session layer (overlapping queries over one multiplexed TCP link vs
# dial-per-query, plus the admission-control overload arm).
sessions-report:
	$(GO) run ./cmd/medbench -table sessions
