# Tier-1 gate: everything CI (and the next PR) runs.
.PHONY: check build fmt vet lint test race bench benchgate fuzz digests traced figures examples loc ab

check: build fmt vet lint test

build:
	go build ./...

# Formatting gate: fails when gofmt would rewrite a tracked Go file.
# Lists the files through git, since `gofmt -l .` also walks the
# untracked module cache under .bench_build/.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

# Domain-invariant static analysis: DS-id propagation, sim determinism,
# control-plane discipline, MMIO error flow. See LINTING.md.
lint:
	go run ./cmd/pardlint ./...

test:
	go test ./...

# Race pass over the packages that spawn goroutines (TCP console, the
# shard runtime's worker pool, the telemetry HTTP surface) and the
# event engine plus the fabric/cluster planes and the ticker-driven
# memory controller and crossbar they serialize into.
race:
	go test -race ./pard/... ./internal/sim/... ./internal/telemetry/... ./internal/cluster/... ./internal/fabric/... ./internal/dram/... ./internal/xbar/...

bench:
	go test -bench=. -benchmem

# Trajectory smoke from the benchmark's own record: run cmd/pardperf for
# exactly 60 steps (--seconds 0) on every workload with seeds 1-3, and
# fail unless each `digest ... at step 60` line equals
# digests_at_step_60 in cmd/pardperf/BASELINE.json. Reads the benchmark
# directory only; run.sh builds under .bench_build/.
digests:
	@set -e; for w in colocate observe cluster_fabric rack8; do \
	  for s in 1 2 3; do \
	    want=$$(python3 -c 'import json, sys; print(json.load(open("cmd/pardperf/BASELINE.json"))["digests_at_step_60"][sys.argv[1]][sys.argv[2]])' $$w $$s); \
	    got=$$(bash cmd/pardperf/run.sh --workload $$w --seed $$s --seconds 0 | sed -n 's/^digest \([0-9a-f]*\) at step 60$$/\1/p'); \
	    if [ "$$got" != "$$want" ]; then \
	      echo "digests: $$w seed $$s printed '$$got', BASELINE.json records $$want"; exit 1; \
	    fi; \
	    echo "digests: $$w seed $$s $$got ok"; \
	  done; \
	done

# Traced trajectory smoke: the same 60 steps with --trace 1, on every
# workload at seed 1. Traced, pardperf builds a second instance in the
# same process and exits 1 when that run's digest or exact counts
# differ from the untraced run's, or when a check fails (llc_guard
# never fired, a backlog grew, no request completed), so state shared
# between instances shows up here first. Fails on a non-zero exit or
# on a step-60 digest other than BASELINE.json's. Then one full-length
# traced rack8 run (seed 42, 25 s, as the benchmark runs it), which
# fails on a non-zero exit: 60 steps cannot show a divergence between
# the two instances, or among rack8's 8 servers on one engine, that
# appears later. Reads the benchmark directory only; about 2 min on
# 2 vCPUs.
traced:
	@set -e; for w in colocate observe cluster_fabric rack8; do \
	  want=$$(python3 -c 'import json, sys; print(json.load(open("cmd/pardperf/BASELINE.json"))["digests_at_step_60"][sys.argv[1]]["1"])' $$w); \
	  out=$$(bash cmd/pardperf/run.sh --workload $$w --seed 1 --seconds 0 --trace 1) || { \
	    echo "traced: $$w seed 1 exited non-zero"; exit 1; }; \
	  got=$$(printf '%s\n' "$$out" | sed -n 's/^digest \([0-9a-f]*\) at step 60$$/\1/p'); \
	  if [ "$$got" != "$$want" ]; then \
	    echo "traced: $$w seed 1 printed '$$got', BASELINE.json records $$want"; exit 1; \
	  fi; \
	  echo "traced: $$w seed 1 $$got ok"; \
	done; \
	bash cmd/pardperf/run.sh --workload rack8 --seed 42 --seconds 25 --trace 1 > /dev/null || { \
	  echo "traced: rack8 seed 42 for 25 s exited non-zero"; exit 1; }; \
	echo "traced: rack8 seed 42 for 25 s ok"

# Figure gate: run the quick sweep and fail on any byte difference from
# results/quick_all.txt. The sweep's stdout carries no wall-clock time
# and is identical across runs and worker counts, so a difference is a
# behaviour change. A deliberate move re-records the file with
# `go run ./cmd/pardbench -run all -scale quick > results/quick_all.txt`
# and names its cause in CHANGES.md. About 2 minutes on 2 vCPUs.
figures:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	go run ./cmd/pardbench -run all -scale quick > "$$out" || exit 1; \
	diff -u results/quick_all.txt "$$out" && echo "figures: stdout equals results/quick_all.txt"

# Example gate: run every examples/*/main.go and fail on a non-zero
# exit or on any byte difference from results/examples.txt, which
# holds each example's stdout under an `== examples/<name>` header.
# Every example is deterministic. A deliberate move re-records the file
# with this target's loop and names its cause in CHANGES.md. About 30
# seconds on 2 vCPUs.
examples:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for main in examples/*/main.go; do \
	  dir=$$(dirname "$$main"); \
	  echo "== $$dir" >> "$$out"; \
	  go run "./$$dir" >> "$$out" || { echo "examples: $$dir exited non-zero"; exit 1; }; \
	done; \
	diff -u results/examples.txt "$$out" && echo "examples: stdout equals results/examples.txt"

# Trajectory-regression gate: re-measure the engine and hot-path
# micro-benchmarks and compare against the committed BENCH.json —
# >10% ns/op regression or any allocs/op increase fails. Also holds,
# on hosts with >= 4 CPUs, the 1.8x rack speedup floor at 4 shards
# (fewer CPUs log an explicit skip). Regenerate the baseline with
# `go run ./cmd/pardbench -run all -scale quick -shards 1,2,4 -json BENCH.json`.
benchgate:
	go run ./cmd/benchgate -baseline BENCH.json

# Fuzzing. Policy-language parsers: no panics on arbitrary input, and
# parse -> print -> parse is a fixpoint — for both per-server policies
# and cluster intent blocks. The flight recorder's in-flight table:
# random put/get/delete sequences agree with a map. CI runs a 30s
# smoke of each; crank FUZZTIME for longer local campaigns.
FUZZTIME ?= 30s
fuzz:
	go test ./internal/policy -fuzz FuzzParsePolicy -fuzztime $(FUZZTIME)
	go test ./internal/policy -fuzz FuzzParseIntent -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz FuzzInflight -fuzztime $(FUZZTIME)

# Line-count ledger: non-test and test Go lines added, deleted and net
# between BASE (default HEAD) and the working tree, untracked Go files
# included. `make loc BASE=<ref>` prints the figures a CHANGES.md entry
# records.
BASE ?= HEAD
loc:
	@{ git diff --numstat --no-renames $(BASE) -- '*.go'; \
	  git ls-files --others --exclude-standard -- '*.go' | while read -r f; do echo "$$(wc -l < "$$f") 0 $$f"; done; } | \
	awk '{ k = ($$3 ~ /_test\.go$$/) ? "test" : "non-test"; a[k] += $$1; d[k] += $$2 } \
	  END { printf "non-test Go: +%d -%d net %+d\n", a["non-test"], d["non-test"], a["non-test"] - d["non-test"]; \
	        printf "test Go:     +%d -%d net %+d\n", a["test"], d["test"], a["test"] - d["test"] }'

# A/B pairs of the repo benchmark, BASE (default HEAD) against the
# working tree (scripts/ab.py): builds each tree's cmd/pardperf with its
# own run.sh (BASE from `git archive` under .bench_build/ab/), runs both
# at once for the benchmark's run_seconds with alternating launch order,
# fails at the first differing `digest` or `exact` line, and prints each
# end-to-end metric's medians and quartiles, change, pairs won, and its
# claim and bound verdicts.
PAIRS ?= 10
SEED ?= 42
WORKLOADS ?= colocate observe cluster_fabric rack8
ab:
	python3 scripts/ab.py --base $(BASE) --workloads "$(WORKLOADS)" --pairs $(PAIRS) --seed $(SEED)
