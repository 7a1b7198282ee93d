# Convenience targets for the QuEST reproduction.
#
# Observability / CI targets:
#   make bench-json   regenerate BENCH_PR6.json, the committed benchmark
#                     baseline tools/benchdiff compares CI runs against
#   make benchdiff    compare a fresh suite run against the committed baseline
#   make trace-smoke  run a tiny traced sim and validate the Perfetto JSON
#   make ledger-smoke run a small ledgered+heatmapped sweep and validate the
#                     JSONL with ledgercheck
#   make shard-smoke  prove process-count independence: a 2-process sharded
#                     sweep merged with ledgermerge and a run resumed from a
#                     truncated ledger must both be byte-identical (cmp) to
#                     the 1-process run
#   make events-smoke run a 2-shard sweep streaming live quest-events/1
#                     telemetry, validate both streams with questtop -check,
#                     render the fleet view, and prove events are a pure
#                     side-band (ledger bytes identical with events on/off)
#   make bw-smoke     run profiled sweeps and sims, validate the quest-bw/1
#                     artifacts with bwreport -check, prove the waveform is
#                     worker-count independent (cmp across -workers 1 and 8)
#                     and a pure side-band (ledger bytes identical with -bw
#                     on/off), and render the ram/fifo/unitcell comparison
#   make lint         gofmt + vet + questvet (CI additionally runs staticcheck)
#   make questvet     run only the custom analyzer suite (tools/questvet),
#                     diffed against the committed questvet-baseline.json
#   make questvet-baseline
#                     regenerate questvet-baseline.json after a deliberate
#                     change (new //quest:allow, accepted finding)

GO ?= go

# GO_TOOLCHAIN mirrors go.mod's `toolchain` directive; TestToolchainVersionsAgree
# fails if the two (or CI's version matrix) drift apart.
GO_TOOLCHAIN := go1.24.0

.PHONY: all build test test-short race bench bench-json benchdiff trace-smoke ledger-smoke shard-smoke events-smoke bw-smoke lint vet fmt questvet questvet-baseline experiments examples fuzz clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

lint: vet questvet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Custom analyzer suite (internal/lint): detrange, nogate, seedsrc, schemaver,
# plus the interprocedural hotalloc/gateflow/errsink analyzers over the
# whole-module call graph. The run is diffed against the committed baseline:
# only new findings, stale baseline entries, or //quest:allow count drift
# fail. The summary line counts the suppressions in force.
questvet:
	$(GO) run ./tools/questvet -baseline questvet-baseline.json ./...

# Regenerate the committed questvet baseline after a *deliberate* change
# (a new reasoned //quest:allow, an accepted finding). Explain the bump in
# the PR; TestModuleCleanAgainstBaseline keeps the file honest.
questvet-baseline:
	$(GO) run ./tools/questvet -write-baseline questvet-baseline.json ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over everything, including the Monte-Carlo worker pool
# and its per-worker metrics shards (see internal/mc and internal/metrics).
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the committed benchmark baseline (schema quest-bench/1; see
# internal/benchsuite). Run on a quiet machine; CI compares against this file.
bench-json:
	$(GO) run ./cmd/questbench -bench-json BENCH_PR6.json

# Compare a fresh suite run against the committed baseline (>30% ns/op fails).
benchdiff:
	$(GO) run ./cmd/questbench -bench-json /tmp/quest_bench_current.json
	$(GO) run ./tools/benchdiff BENCH_PR6.json /tmp/quest_bench_current.json

# Run a tiny traced simulation and validate the emitted Perfetto JSON —
# the same check CI's trace-smoke job runs.
trace-smoke:
	$(GO) run ./cmd/questsim -program distill -replays 5 -trace /tmp/quest_trace_smoke.json
	$(GO) run ./tools/tracecheck -min-procs 4 /tmp/quest_trace_smoke.json

# Run a small traced + ledgered threshold sweep with CI early-stop and
# heatmaps, then validate the ledger — the same check CI's trace-smoke job
# runs. The experiment ledger and heatmap are worker-count independent.
ledger-smoke:
	$(GO) run ./cmd/questbench -trials 40 -workers 4 -ci-stop 0.2 \
		-ledger /tmp/quest_ledger_smoke.jsonl -heatmap /tmp/quest_heatmap_smoke.json \
		-trace /tmp/quest_sweep_trace.json threshold
	$(GO) run ./tools/ledgercheck -min-cells 6 -min-trials 60 /tmp/quest_ledger_smoke.jsonl

# Prove process-count independence end to end — the same checks CI's
# shard-smoke job runs. A 2-process sharded threshold sweep (deliberately
# run with different -workers per shard) is merged by tools/ledgermerge and
# cmp(1)'d byte-for-byte against the 1-process ledger; then the 1-process
# ledger is truncated mid-cell with a torn final line (what a crash leaves)
# and a -resume run must reconverge to the same bytes. The cut keeps the
# header, the first cell (100 trials + summary) and 70 trials of the second
# cell, so the resume starts inside that cell's second 64-trial lane. All
# artifacts match the ledger-shard-*.jsonl pattern covered by .gitignore and
# `make clean`.
shard-smoke:
	$(GO) run ./cmd/questbench -trials 100 -workers 4 -ledger ledger-shard-full.jsonl threshold
	$(GO) run ./cmd/questbench -trials 100 -workers 2 -shard 0/2 -ledger ledger-shard-0.jsonl threshold
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -shard 1/2 -ledger ledger-shard-1.jsonl threshold
	$(GO) run ./tools/ledgermerge -o ledger-shard-merged.jsonl ledger-shard-0.jsonl ledger-shard-1.jsonl
	cmp ledger-shard-merged.jsonl ledger-shard-full.jsonl
	$(GO) run ./tools/ledgercheck -min-cells 6 -min-trials 600 ledger-shard-merged.jsonl
	head -n 172 ledger-shard-full.jsonl > ledger-shard-crash.jsonl
	printf '{"record":"trial","cell":"thr' >> ledger-shard-crash.jsonl
	$(GO) run ./cmd/questbench -trials 100 -workers 3 -resume ledger-shard-crash.jsonl \
		-ledger ledger-shard-resumed.jsonl threshold
	cmp ledger-shard-resumed.jsonl ledger-shard-full.jsonl
	$(GO) run ./tools/ledgercheck -min-cells 6 -min-trials 600 ledger-shard-resumed.jsonl

# Live-telemetry smoke — the same checks CI's events-smoke job runs. A
# 2-shard ledgered sweep streams quest-events/1 snapshots; questtop -check
# validates each stream's schema and monotonicity plus the fleet's coherence
# (one experiment, distinct shard indices), then renders the aggregate view.
# Finally the telemetry-is-a-pure-side-band claim is checked end to end: the
# shard-0 sweep rerun without -events must produce byte-identical ledger
# bytes (cmp). Artifacts match events-shard-*.jsonl, covered by .gitignore
# and `make clean`.
events-smoke:
	$(GO) run ./cmd/questbench -trials 16 -workers 2 -shard 0/2 \
		-ledger events-shard-ledger-0.jsonl -events events-shard-0.jsonl threshold
	$(GO) run ./cmd/questbench -trials 16 -workers 3 -shard 1/2 \
		-ledger events-shard-ledger-1.jsonl -events events-shard-1.jsonl threshold
	$(GO) run ./tools/questtop -check events-shard-0.jsonl events-shard-1.jsonl
	$(GO) run ./tools/questtop events-shard-0.jsonl events-shard-1.jsonl
	$(GO) run ./cmd/questbench -trials 16 -workers 2 -shard 0/2 \
		-ledger events-shard-ledger-off.jsonl threshold
	cmp events-shard-ledger-off.jsonl events-shard-ledger-0.jsonl

# Bandwidth-profiler smoke — the same checks CI's bw-smoke job runs. The
# memory experiment drives the full machine decode path (threshold cells
# bypass the machine, so they put no traffic on the buses): the same
# profiled sweep at -workers 1 and 8 must produce byte-identical quest-bw/1
# waveforms (cmp), and the -workers 1 ledger must be byte-identical with -bw
# on and off (profiling is a pure side-band). bwreport -check validates each
# artifact, then three questsim runs — one per microcode design — feed the
# ram/fifo/unitcell comparison table. Artifacts match bw-smoke-*.jsonl,
# covered by .gitignore and `make clean`.
bw-smoke:
	$(GO) run ./cmd/questbench -trials 8 -workers 1 \
		-ledger bw-smoke-ledger-on.jsonl -bw bw-smoke-w1.jsonl memory
	$(GO) run ./cmd/questbench -trials 8 -workers 8 \
		-bw bw-smoke-w8.jsonl memory
	cmp bw-smoke-w1.jsonl bw-smoke-w8.jsonl
	$(GO) run ./cmd/questbench -trials 8 -workers 1 \
		-ledger bw-smoke-ledger-off.jsonl memory
	cmp bw-smoke-ledger-off.jsonl bw-smoke-ledger-on.jsonl
	$(GO) run ./tools/bwreport -check bw-smoke-w1.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design ram \
		-bw bw-smoke-ram.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design fifo \
		-bw bw-smoke-fifo.jsonl
	$(GO) run ./cmd/questsim -program distill -replays 8 -design unitcell \
		-bw bw-smoke-unitcell.jsonl
	$(GO) run ./tools/bwreport bw-smoke-ram.jsonl bw-smoke-fifo.jsonl \
		bw-smoke-unitcell.jsonl

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/questbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/shor_scaling
	$(GO) run ./examples/logical_cnot
	$(GO) run ./examples/tfactory
	$(GO) run ./examples/threshold
	$(GO) run ./examples/workload_report
	$(GO) run ./examples/host_pipeline
	$(GO) run ./examples/algorithms

# Brief fuzzing runs over the wire formats, the JSONL artifact readers
# (ledger, events, quest-bw/1) and the trace reader, plus the stabilizer
# tableau against its row-major oracle and the MCE issue stage against its
# whole-queue scan. The artifact readers' seeds are whole writer outputs, so
# minimizing each new input would eat the run: it is switched off.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/qasm/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/qexe/
	$(GO) test -fuzz FuzzTableauMatchesOracle -fuzztime 30s ./internal/clifford/
	$(GO) test -run '^$$' -fuzz FuzzIssueMatchesScan -fuzztime 30s ./internal/mce/
	$(GO) test -run '^$$' -fuzz FuzzLedgerRead -fuzztime 30s -fuzzminimizetime 1x ./internal/ledger/
	$(GO) test -run '^$$' -fuzz FuzzEventsParse -fuzztime 30s -fuzzminimizetime 1x ./internal/events/
	$(GO) test -run '^$$' -fuzz FuzzBWParse -fuzztime 30s -fuzzminimizetime 1x ./internal/bwprofile/
	$(GO) test -run '^$$' -fuzz FuzzTraceValidate -fuzztime 30s -fuzzminimizetime 1x ./internal/tracing/
	$(GO) test -run '^$$' -fuzz FuzzReadReport -fuzztime 30s -fuzzminimizetime 1x ./internal/benchsuite/

# Remove only *untracked* files under the fuzz corpora directories (fuzzing
# drops new inputs there) plus build artifacts. An earlier version ran
# `rm -rf` on the whole testdata trees, which deleted the committed seed
# corpora; TestCleanTargetPreservesTrackedTestdata pins the fix.
clean:
	git clean -fdx internal/qasm/testdata internal/qexe/testdata internal/clifford/testdata \
		internal/mce/testdata internal/ledger/testdata internal/events/testdata internal/bwprofile/testdata \
		internal/tracing/testdata internal/benchsuite/testdata
	rm -f ledger-shard-*.jsonl events-shard-*.jsonl bw-smoke-*.jsonl
	$(GO) clean ./...
