GO ?= go

.PHONY: test race bench bench-smoke loc deadcode fuzz mutexprofile fault-soak examples

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# The performance ledger — the one bench harness: every workload of
# BENCHMARK.json, end-to-end and per-layer metrics (~2.5 min; see
# bench/README.md for -runs and -compare). BENCH_PR3-10.json are frozen
# history from the per-PR harnesses it replaced. bench/ is a module of its
# own, which `go test ./...` does not descend into: its smoke test is
# `go test -C bench . -short`.
bench:
	$(GO) run -C bench .

# One iteration of every benchmark: catches benchmarks that rot without
# paying for real measurement.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=1x ./...

# Every examples/ main, run to completion (each exits 0 within seconds).
# examples/concurrent runs a second time under the race detector: it
# drives concurrent submits through the queue over a MemDevice.
examples:
	@for e in examples/*/; do \
		$(GO) run ./$$e > /dev/null || { echo "$$e failed"; exit 1; }; \
	done
	$(GO) run -race ./examples/concurrent > /dev/null

# Count it (ROADMAP axis 2): non-test Go lines outside the frozen bench
# module and the testdata fixtures, and beside them the assembly the Go
# count does not see.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
	@echo "$$(find . -name '*.s' ! -path './bench/*' -print0 | xargs -0 cat | wc -l) lines of assembly beside them"

# The dead-code gate alone (deadcode_test.go): functions, write-only
# fields, one-implementation interfaces, never-set options and unused
# exported names that only tests keep. -v also prints the names only the
# frozen bench/ module keeps alive: ROADMAP direction 11's worklist.
deadcode:
	$(GO) test -count=1 -run '^TestNoTestOnlyCode$$' -v .

# Ten seconds of every fuzz target (the CI step): the request descriptor
# against its per-block oracle on every stack layer, every XTS kernel
# path against the Go loop, the CRC kernel against hash/crc64, the on-disk bitmap parser
# and its rank index against a recount and a linear scan, OpenPool over
# arbitrary metadata-device bytes against the pool's own checkers, core.Open
# over arbitrary crypto-footer bytes, and the trace-file parser against its
# own encoder. The engine also minimizes
# every input that merely widens coverage, by default for up to a minute
# each — six of the ten seconds went there for the multi-KiB XTS inputs —
# hence the cap.
FUZZ_TARGETS = FuzzDo:./internal/storage/ FuzzXTSKernel:./internal/xcrypto/ FuzzCRC:./internal/crc/ FuzzBitmap:./internal/thinp/ FuzzOpenPool:./internal/thinp/ FuzzFooter:./internal/core/ FuzzReadJSONL:./internal/obs/
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz="^$${t%%:*}$$" -fuzztime=10s -fuzzminimizetime=2s "$${t#*:}" || exit 1; \
	done

# Contention triage: the writer-scaling sweep with mutex profiling; the
# profile lands in /tmp/mutex.out for `go tool pprof`. The pattern takes
# the procs=4 cases: a thin per writer (pool lock, allocation mutex,
# commit door) and procs=4/shared, two and four writers on one thin (its
# thin lock and transfer guard).
mutexprofile:
	$(GO) test -run XXX -bench 'BenchmarkConcurrentWriters/procs=4' \
		-benchtime 8000x -mutexprofile /tmp/mutex.out ./internal/thinp/
	@echo "profile: go tool pprof -top /tmp/mutex.out"

# Short-budget robustness soak: every fault-injection, health-ladder,
# retry and sweep suite under the race detector, twice. Mirrors the CI
# fault-soak job; the full sweeps (no -short stride) run in `make test`.
fault-soak:
	$(GO) test -race -count=2 \
		-run 'Fault|Flaky|Mode|Sweep|Retry|Barrier|Stress|Health' \
		./internal/storage/ ./internal/ioq/ ./internal/thinp/ ./internal/core/ .
