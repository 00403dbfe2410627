# Tier-1 gate (see ROADMAP.md): the module must build, vet clean and pass
# every test from a clean checkout.
.PHONY: check build test vet race bench bench-daemon bench-smoke experiments lint lint-docs cache-smoke fault-smoke daemon-smoke fuzz-smoke

check: vet test

build:
	go build ./...

# The module must also build off Linux: platform code sits behind build
# tags (cas presence, the flock store lock, the seccomp probe's raw call).
vet:
	go vet ./...
	GOOS=darwin go build ./...
	GOOS=windows go build ./...

test:
	go test ./...

# The concurrency gate: the pool, the shared caches and the registry must
# be race-clean with the detector on. The second line repeats the
# single-flight tests (flight.Group and its users: the instruction cache's
# fills and lazy loads, the store's flatten fills), the package repo's
# encode-on-first-fetch, the determinism oracle's pooled builds and the
# pooled builders that materialise a deferred tree at their first miss, so
# each run samples many interleavings, not one.
# The third repeats the daemon tests where an operation's wait for a
# build slot races its cancel or the drain.
race:
	go test -race ./...
	go test -race -count=20 -run 'SingleFlight|ConcurrentAccounting|ReleasesWaiters|Hammer|LazyFlight|RepoFetchConcurrent|Determinism|PoolDeferred' \
		./internal/build ./internal/image ./internal/flight ./internal/pkgmgr
	go test -race -count=20 -run 'CancelQueued|CancelRunning|Saturation|Drain' ./internal/daemon

# One pass over every benchmark, including the E8/E15 build matrix. The
# raw output (benchstat input format) lands in BENCH_layercommit.txt and a
# parsed JSON record in BENCH_layercommit.json, so the perf trajectory of
# the commit pipeline is recorded run over run (CI uploads both).
# The benchmarks in BENCH_RECORDS are skipped there and get their own
# multi-sample run, recorded in BENCH_<name>.{txt,json}:
#   - parallel: BenchmarkBuildParallel, the pool's scaling claim (a cold
#     16-build pool completes in far less than 16× a single build);
#   - multistage: BenchmarkBuildMultiStage, the stage-DAG schedule
#     (stage-jobs=2 vs the serial schedule, a skewed DAG whose short chain
#     can overlap its slow stage, plus the warm replay);
#   - persistent: BenchmarkBuildPersistent, the persistent-cache claim (a
#     warm-from-disk invocation with completely fresh in-memory state
#     lands far under a cold one, approaching the in-memory warm rebuild);
#   - cas: BenchmarkCacheOpen, a large store's open (O(journal lines), no
#     blob read) beside `cache fsck`'s open plus Dir.Fsck (O(store bytes),
#     every blob read back and re-hashed across CPUs);
#   - obs: BenchmarkObsOverhead, the observability instrumentation's cost
#     on the warm build path, instrumented vs obs.SetDisabled — the <3%
#     acceptance ceiling in docs/observability.md is checked against it;
#   - tar: BenchmarkLayerCodec, the tar codec on base layers, apk payloads
#     and commit-sized diffs;
#   - invocation: BenchmarkInvocation, one whole cold or warm ch-image
#     invocation (world, store, the FROM's base, build), the fixed set-up
#     the emulated RUN work sits in.
# Each record is name:pattern:benchtime. (No pipe into tee: that would
# mask go test's exit status.)
BENCH_RECORDS = parallel:BenchmarkBuildParallel:5x multistage:BenchmarkBuildMultiStage:5x \
	persistent:BenchmarkBuildPersistent:5x cas:BenchmarkCacheOpen:5x \
	obs:BenchmarkObsOverhead:5x tar:BenchmarkLayerCodec:1000x \
	invocation:BenchmarkInvocation:200x
empty :=
space := $(empty) $(empty)
BENCH_SKIP = $(subst $(space),|,$(foreach r,$(BENCH_RECORDS),$(word 2,$(subst :, ,$(r)))))
bench:
	@for rec in layercommit:.:1x $(BENCH_RECORDS); do \
		name=$${rec%%:*}; pattern=$${rec#*:}; pattern=$${pattern%%:*}; benchtime=$${rec##*:}; \
		skip=; if [ $$name = layercommit ]; then skip='$(BENCH_SKIP)'; fi; \
		echo "go test -bench=$$pattern -skip='$$skip' -benchtime=$$benchtime -run='^$$' . > BENCH_$$name.txt"; \
		go test -bench=$$pattern -skip="$$skip" -benchtime=$$benchtime -run='^$$' . > BENCH_$$name.txt; \
		status=$$?; cat BENCH_$$name.txt; [ $$status -eq 0 ] || exit $$status; \
		go run ./cmd/benchjson < BENCH_$$name.txt > BENCH_$$name.json || exit 1; \
	done
	$(MAKE) bench-daemon

# The service-throughput benchmark behind BENCH_daemon.{txt,json}: a real
# ch-imaged subprocess with --jobs 4 takes 64 concurrent mixed warm/cold
# loadgen builds. The loadgen exit status IS the acceptance gate: zero
# failed operations and a >=75% warm cache-hit rate, with p50/p95/p99
# latency recorded run over run.
DAEMON_BENCH_DIR ?= .daemon-bench
bench-daemon:
	@rm -rf $(DAEMON_BENCH_DIR) && mkdir -p $(DAEMON_BENCH_DIR)
	go build -o $(DAEMON_BENCH_DIR)/ch-imaged ./cmd/ch-imaged
	go build -o $(DAEMON_BENCH_DIR)/loadgen ./cmd/loadgen
	@$(DAEMON_BENCH_DIR)/ch-imaged --listen 127.0.0.1:0 --jobs 4 --queue 128 \
		--cache-dir $(DAEMON_BENCH_DIR)/cas \
		--addr-file $(DAEMON_BENCH_DIR)/addr 2> $(DAEMON_BENCH_DIR)/daemon.log & \
		daemon_pid=$$!; \
		$(DAEMON_BENCH_DIR)/loadgen --addr-file $(DAEMON_BENCH_DIR)/addr \
			-n 64 -c 8 --variants 4 --cold-every 16 --min-hit-rate 0.75 \
			--out BENCH_daemon.txt --json BENCH_daemon.json; load_status=$$?; \
		kill -TERM $$daemon_pid; wait $$daemon_pid; daemon_status=$$?; \
		if [ $$load_status -ne 0 ] || [ $$daemon_status -ne 0 ]; then \
			echo "bench-daemon FAILED (loadgen=$$load_status daemon=$$daemon_status)"; \
			cat $(DAEMON_BENCH_DIR)/daemon.log; exit 1; \
		fi
	@echo "bench-daemon OK: 64 builds served, daemon drained cleanly"

# The repository benchmark (_imagebench/, run by BENCHMARK.json) is a Go
# module of its own in an underscore directory, so `go build ./...` never
# compiles it. One short run of each workload against this checkout must
# end in a line reporting "correct":true and "failed":0; an engine API
# change that breaks the harness, or a build it rejects, fails here.
bench-smoke:
	@for w in cold warm daemon; do \
		out=$$(bash _imagebench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0) || \
			{ echo "bench-smoke FAILED: $$w exited non-zero"; exit 1; }; \
		last=$$(printf '%s\n' "$$out" | tail -n 1); \
		case "$$last" in \
			*'"correct":true'*'"failed":0,'*) echo "bench-smoke $$w OK: $$last" ;; \
			*) echo "bench-smoke FAILED: $$w: $$last"; exit 1 ;; \
		esac; \
	done

# The cross-invocation acceptance check: ch-image builds in SEPARATE
# processes against one --cache-dir; after the first, each must execute
# nothing, and `cache fsck` must find every blob intact. The second build
# runs with --trace and must print no `materialise` span: its WORKDIR,
# which creates a directory, is checked out like every other step, so a
# fully cached build never builds a tree. CACHE_SMOKE_DIR
# is overridable so CI can persist the cas fixture between jobs and runs
# (so the warm-from-disk open and a full fsck of a store written by an
# earlier run happen on every CI run).
CACHE_SMOKE_DIR ?= .cache-smoke
cache-smoke:
	@mkdir -p $(CACHE_SMOKE_DIR)/ctx
	@printf 'FROM alpine:3.19\nRUN apk add sl\nRUN mkdir -p /srv && echo cached > /srv/marker\nWORKDIR /opt/app\n' > $(CACHE_SMOKE_DIR)/ctx/Dockerfile
	go run ./cmd/ch-image build -t smoke:1 --cache-dir $(CACHE_SMOKE_DIR)/cas $(CACHE_SMOKE_DIR)/ctx > $(CACHE_SMOKE_DIR)/first.out
	go run ./cmd/ch-image build -t smoke:1 --cache-dir $(CACHE_SMOKE_DIR)/cas --trace $(CACHE_SMOKE_DIR)/ctx > $(CACHE_SMOKE_DIR)/second.out 2> $(CACHE_SMOKE_DIR)/second.trace
	@grep -q '^instructions executed: 0 ' $(CACHE_SMOKE_DIR)/second.out || \
		{ echo "cache-smoke FAILED: second process executed instructions:"; cat $(CACHE_SMOKE_DIR)/second.out; exit 1; }
	@! grep -q 'materialise' $(CACHE_SMOKE_DIR)/second.trace || \
		{ echo "cache-smoke FAILED: second process built a tree:"; cat $(CACHE_SMOKE_DIR)/second.trace; exit 1; }
	@echo "cache-smoke OK: second process ran fully warm from $(CACHE_SMOKE_DIR)/cas, building no tree"
	@# Full verification: every blob read back and digest-checked; any
	@# damage found (and quarantined) is exit 1.
	go run ./cmd/ch-image cache --cache-dir $(CACHE_SMOKE_DIR)/cas fsck > $(CACHE_SMOKE_DIR)/fsck.out || \
		{ echo "cache-smoke FAILED: cache fsck found damage:"; cat $(CACHE_SMOKE_DIR)/fsck.out; exit 1; }
	@echo "cache-smoke OK: cache fsck found $(CACHE_SMOKE_DIR)/cas intact"
	@# Cross-process flock: a build and a budgeted gc race on ONE
	@# --cache-dir. The gc's exclusive lock conversion blocks behind the
	@# build's shared hold (up to --lock-wait) instead of rewriting the
	@# journal underneath it; both must exit 0 in any interleaving.
	go run ./cmd/ch-image build -t smoke:2 --cache-dir $(CACHE_SMOKE_DIR)/cas $(CACHE_SMOKE_DIR)/ctx > $(CACHE_SMOKE_DIR)/third.out & \
		build_pid=$$!; \
		go run ./cmd/ch-image cache --cache-dir $(CACHE_SMOKE_DIR)/cas gc --max-bytes 1073741824 > $(CACHE_SMOKE_DIR)/gc.out; gc_status=$$?; \
		wait $$build_pid; build_status=$$?; \
		if [ $$gc_status -ne 0 ] || [ $$build_status -ne 0 ]; then \
			echo "cache-smoke FAILED: concurrent build/gc (build=$$build_status gc=$$gc_status)"; \
			cat $(CACHE_SMOKE_DIR)/third.out $(CACHE_SMOKE_DIR)/gc.out; exit 1; \
		fi
	@echo "cache-smoke OK: concurrent build and gc on one store both succeeded"
	@# Bound the fixture: CI restores+saves this dir forever, so collect
	@# everything the tagged images don't reach before it is cached again.
	go run ./cmd/ch-image cache --cache-dir $(CACHE_SMOKE_DIR)/cas gc smoke:2

# The fault-injection soak (deterministic per FAULT_SOAK_SEED): seeded
# randomized builds against a persistent store with faults injected at
# every cas failpoint — torn blob writes, rename and read errors, ENOSPC
# on the journal, lock busyness. Every build must either succeed
# (degraded allowed) or fail with a clean error, and the store must
# reopen with zero damage after every single build. Invariant violations
# are appended to FAULT_SOAK_LOG, which CI uploads on failure.
FAULT_SOAK_BUILDS ?= 200
FAULT_SOAK_SEED ?= 1
FAULT_SOAK_LOG ?= $(abspath fault-soak.log)
FAULT_SOAK_DAEMON_BUILDS ?= 48
fault-smoke:
	FAULT_SOAK_BUILDS=$(FAULT_SOAK_BUILDS) FAULT_SOAK_SEED=$(FAULT_SOAK_SEED) \
		FAULT_SOAK_LOG=$(FAULT_SOAK_LOG) \
		go test -run TestFaultSoak -count=1 -v ./internal/build
	FAULT_SOAK_DAEMON_BUILDS=$(FAULT_SOAK_DAEMON_BUILDS) FAULT_SOAK_SEED=$(FAULT_SOAK_SEED) \
		go test -run TestDaemonFaultSoak -count=1 -v ./internal/daemon

# The decoder fuzz smoke. FuzzRead checks that tarutil.Read decodes any
# input into exactly the members archive/tar decodes, or fails where it
# fails. FuzzDecodeLine checks that the cas journal's direct line decoder
# accepts only payloads json.Unmarshal accepts, into an equal record.
# Minimization is capped so a new input found on a large seed (a whole
# base layer) cannot use up the run.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/tarutil
	go test -run '^$$' -fuzz '^FuzzDecodeLine$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/cas

# The daemon subprocess smoke: a real ch-imaged on a unix socket with 2
# build slots and room for 1 more admitted build takes 32 loadgen builds
# from 8 clients, so admission rejects with 429 (loadgen retries) and
# admitted builds wait for a slot; then SIGTERM drains in-flight work and
# the process exits 0 — the service analog of cache-smoke.
DAEMON_SMOKE_DIR ?= .daemon-smoke
daemon-smoke:
	@rm -rf $(DAEMON_SMOKE_DIR) && mkdir -p $(DAEMON_SMOKE_DIR)
	go build -o $(DAEMON_SMOKE_DIR)/ch-imaged ./cmd/ch-imaged
	go build -o $(DAEMON_SMOKE_DIR)/loadgen ./cmd/loadgen
	@$(DAEMON_SMOKE_DIR)/ch-imaged --listen unix:$(DAEMON_SMOKE_DIR)/sock --jobs 2 --queue 1 \
		--cache-dir $(DAEMON_SMOKE_DIR)/cas \
		--addr-file $(DAEMON_SMOKE_DIR)/addr 2> $(DAEMON_SMOKE_DIR)/daemon.log & \
		daemon_pid=$$!; \
		$(DAEMON_SMOKE_DIR)/loadgen --addr-file $(DAEMON_SMOKE_DIR)/addr \
			-n 32 -c 8 --variants 4 --cold-every 16 --min-hit-rate 0.75 --scrape > $(DAEMON_SMOKE_DIR)/loadgen.out; load_status=$$?; \
		kill -TERM $$daemon_pid; wait $$daemon_pid; daemon_status=$$?; \
		if [ $$load_status -ne 0 ] || [ $$daemon_status -ne 0 ]; then \
			echo "daemon-smoke FAILED (loadgen=$$load_status daemon=$$daemon_status)"; \
			cat $(DAEMON_SMOKE_DIR)/daemon.log $(DAEMON_SMOKE_DIR)/loadgen.out; exit 1; \
		fi
	@grep -q 'drained, exiting' $(DAEMON_SMOKE_DIR)/daemon.log || \
		{ echo "daemon-smoke FAILED: no clean drain message:"; cat $(DAEMON_SMOKE_DIR)/daemon.log; exit 1; }
	@echo "daemon-smoke OK: unix-socket daemon served 32 builds and drained on SIGTERM"

# Static-analysis gate: go vet plus the project's own analyzers
# (cmd/chlint → internal/analysis, stdlib-only; see docs/analysis.md).
# chlint exits 1 on any finding; the report file is written either way
# so CI can archive it. CHLINT_REPORT is overridable for CI artifacts.
CHLINT_REPORT ?= chlint-report.txt
lint:
	go vet ./...
	go run ./cmd/chlint -o $(CHLINT_REPORT) ./...

# Documentation gate: every relative link in the Markdown docs must
# resolve and every ```go example must be gofmt-clean (cmd/doccheck).
lint-docs:
	go run ./cmd/doccheck README.md ROADMAP.md CHANGES.md docs/*.md

# The full paper reproduction report (E1–E19).
experiments:
	go run ./cmd/experiments
