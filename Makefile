GO ?= go

.PHONY: build test race vet vet-perfbench fmt lint lint-baseline check chaos experiments bench bench-smoke trace-smoke race-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# vet-perfbench type-checks the benchmark module (perfbench/, its own
# go.mod, which reaches this module through a replace), so deleting an
# API the benchmark calls fails here instead of in a benchmark run. It
# builds with the benchmark runner's environment; -modfile points the
# build at a temporary copy of perfbench/go.mod, because -mod=mod
# rewrites the go.mod it is given.
vet-perfbench:
	@tmp=$$(mktemp -d); cp perfbench/go.mod $$tmp/go.mod; \
	(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		$(GO) vet -modfile=$$tmp/go.mod ./...); st=$$?; rm -rf $$tmp; exit $$st

# fmt fails if any file needs reformatting.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the three in-repo invariant analyzers (cmd/iocheck), all
# syntactic: simtime, maprange and dropresult. Contracts that a runtime
# test pins are not lint rules: hot-path allocation (an AllocsPerRun
# budget test per hot layer), nil-receiver safety of the fault and trace
# handles (every exported method called on nil), the control-round
# lifecycle (the core round-contract, stale-epoch, retry-budget and
# span-outcome tests), never parking outside a process or inside a
# dispatch (kernel panics), nil-checked round answers and same-seed
# schedule determinism (core tests); `go test` runs them all.
# Zero-dependency; lint-baseline.json is a per-rule ratchet over both
# unsuppressed findings and audited //iocheck:allow counts. Finding
# growth fails; finding shrinkage also fails until the baseline is
# ratcheted down, so the debt level only moves consciously.
lint:
	$(GO) run ./cmd/iocheck -baseline lint-baseline.json ./...

# lint-baseline regenerates the per-rule ratchet: run it after fixing a
# grandfathered finding (the ratchet only moves down by regeneration) or
# after an audit consciously adds or retires an //iocheck:allow.
lint-baseline:
	$(GO) run ./cmd/iocheck -write-baseline lint-baseline.json ./...

# chaos searches randomized fault schedules for invariant violations
# (cmd/iochaos: 2,000 seeds over the failover scenario and the
# hand-written fault schedule, each about 2 s; 64 seeds over the
# at-least-once data plane with writer-node crashes and descriptor-drop
# windows as fair targets, the sharded control plane with
# meta/shard-manager crashes as fair targets, and the 2,000-subscriber
# dashboard fleet with subscriber crashes and reconnect storms as fair
# targets; the data-plane and sharded scenarios still fail on known
# seeds past 64, see ROADMAP item 1),
# smokes the 1,000-container sharded scenario on a reduced seed set,
# then replays the checked-in shrunk reproducers in
# scenarios/regressions/.
chaos:
	$(GO) run ./cmd/iochaos -scenario scenarios/chaos-failover.json -seeds 2000
	$(GO) run ./cmd/iochaos -scenario scenarios/faults.json -seeds 2000
	$(GO) run ./cmd/iochaos -scenario scenarios/delivery.json -seeds 64
	$(GO) run ./cmd/iochaos -scenario scenarios/chaos-shards.json -seeds 64
	$(GO) run ./cmd/iochaos -scenario scenarios/dashboards.json -seeds 64
	$(GO) run ./cmd/iochaos -scenario scenarios/shards-1k.json -seeds 8
	$(GO) test ./internal/chaos/ -run TestRegressionsReplay

# check is what CI runs.
check: fmt vet vet-perfbench lint build race chaos

experiments:
	$(GO) run ./cmd/experiments

# bench regenerates BENCH_baseline.json: each root benchmark runs once
# with its fixed seed and cmd/benchjson folds the output into a sorted
# name -> {ns/op, B/op, allocs/op} map. ns/op is a wall-clock snapshot of
# the machine that ran it; allocs/op is stable and is the number to diff.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	cat bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_baseline.json
	rm -f bench.out

# bench-smoke proves every benchmark still runs and parses, without
# touching the checked-in baseline (CI runs this). -assert-allocs guards
# the harness itself: the ablation benchmarks and ShardControlRound
# (its sweep-ratio) emit ReportMetric columns between ns/op and B/op,
# and a parser regression there once zeroed every ablation's allocs/op
# in the baseline.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	$(GO) run ./cmd/benchjson -assert-allocs 'Ablation,Fig5,Fig10,IocheckModule,StreamingFanout,ShardControlRound,ChaosSchedules' < bench.out > /dev/null
	rm -f bench.out

# trace-smoke runs one traced fig7 scenario and fails unless the exported
# Chrome trace_event JSON parses (iotrace validates its own export).
trace-smoke:
	out=$$(mktemp); \
	$(GO) run ./cmd/iotrace -config scenarios/fig7.json -chrome $$out -critical || { rm -f $$out; exit 1; }; \
	rm -f $$out

# race-smoke runs the chaos worker pool (the iochaos -seeds 16 -workers 4
# configuration) under the race detector: verdicts must be byte-identical
# across worker counts, and any cross-worker sharing in the engine is a
# race report. It also runs two concurrent loads (the module and a
# fixture) through one shared stdlib importer memo.
race-smoke:
	$(GO) test -race -run 'TestWorkerPoolVerdictsIdentical|TestSearchByteDeterministic' ./internal/chaos
	$(GO) test -race -run 'TestConcurrentLoads' ./internal/analysis

# fuzz-smoke explores past the checked-in seed corpora (plain go test only
# replays those): about 10 s of coverage-guided fuzzing each for the
# subscriber-cursor fuzzer, the kernel event-order fuzzer, the kernel
# FIFO model fuzzer, the poll-tick equivalence fuzzer, the BP stream
# reader fuzzer, the scenario loader fuzzer and the flight-recorder model
# fuzzer. A failing input is written under the package's
# testdata/fuzz/ for replay. -fuzzminimizetime 1s caps the
# minimisation of each new interesting input: at Go's default of 60 s a
# single minimisation can eat the rest of a 10 s run, and fuzzing stops
# after 3-6 s with the exec counter frozen.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSubHubCursors$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/datatap
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzFIFO$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPollEquivalence$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzBPReader$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/bp
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioLoad$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzRecorder$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/trace
