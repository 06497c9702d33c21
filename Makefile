# Tier-1 verification plus the smokes CI runs. `make ci` is what every PR must
# keep green; performance is judged by cmperf (`bash bench/run.sh`,
# `make cmperf-compare`, docs/PERF.md).

GO ?= go

.PHONY: ci fmt vet build test race bench-test fuzz-smoke cmperf-compare sweep-smoke soak-smoke fattree-smoke probe-smoke route-smoke examples-smoke artifacts-check loc

ci: fmt vet build race bench-test fuzz-smoke

# Fails when gofmt would reformat any tracked .go file, bench/ included. It
# only lists the files; it never rewrites them.
fmt:
	@out=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cmperf (bench/) is its own module, so `go test ./...` at the root never sees
# its tests; they also prove that every exported signature cmperf calls still
# compiles against this tree.
bench-test:
	cd bench && $(GO) test ./...

# Fifteen seconds of native fuzzing over every fuzz target, 3 s each. Each
# feeds random operation traces, callbacks included, to the real thing and to
# a plain reference, and compares step by step: FuzzSchedulerOps holds the
# scheduler to a container/heap one (internal/simtime/reference_test.go),
# FuzzLinkOps holds netsim.Link to the two-event transmitter it replaced
# (internal/netsim/reference_test.go), FuzzQueueOps holds netsim.Queue's ring
# to a slice-backed drop-tail FIFO with the routing reserve
# (internal/netsim/queue_reference_test.go), FuzzHostOps holds node.Host's
# tables to a map-backed host (internal/node/reference_test.go), FuzzCMOps
# holds the CM's slot-table flow handles to map-keyed ones
# (internal/cm/reference_test.go).
# The seed corpora are in each package's testdata/fuzz/; a failing input is
# written there too.
# Minimising each coverage-expanding input would otherwise eat the budget.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSchedulerOps -fuzztime=3s -fuzzminimizetime=1s ./internal/simtime
	$(GO) test -run='^$$' -fuzz=FuzzLinkOps -fuzztime=3s -fuzzminimizetime=1s ./internal/netsim
	$(GO) test -run='^$$' -fuzz=FuzzQueueOps -fuzztime=3s -fuzzminimizetime=1s ./internal/netsim
	$(GO) test -run='^$$' -fuzz=FuzzHostOps -fuzztime=3s -fuzzminimizetime=1s ./internal/node
	$(GO) test -run='^$$' -fuzz=FuzzCMOps -fuzztime=3s -fuzzminimizetime=1s ./internal/cm

# Tracked Go lines in three totals: non-test and _test.go files outside bench/,
# and bench/ (its own module). "code" leaves out blank lines and lines holding
# only a // comment, so a deletion is not counted twice over its comments.
loc:
	@git ls-files -z '*.go' | xargs -0 awk ' \
		FNR == 1 { k = FILENAME ~ /^bench\// ? "bench/" : FILENAME ~ /_test\.go$$/ ? "_test.go" : "non-test" } \
		{ lines[k]++ } \
		!/^[ \t]*(\/\/.*)?$$/ { code[k]++ } \
		END { printf "%-9s %7s %7s\n", "", "lines", "code"; \
			n = split("non-test _test.go bench/", ks, " "); \
			for (i = 1; i <= n; i++) printf "%-9s %7d %7d\n", ks[i], lines[ks[i]], code[ks[i]] }'

# Judge the working tree against a parent revision with cmperf: PAIRS
# alternating pairs of end-to-end runs, each side built from its own exported
# copy, then `cmperf -compare` over both lists (exit status non-zero on a
# regression). ARGS goes to every run, e.g. ARGS='-workload grid64_cm'.
PAIRS ?= 10
cmperf-compare:
	@test -n "$(PARENT)" || { echo "usage: make cmperf-compare PARENT=<rev> [PAIRS=10] [ARGS='-workload ...']"; exit 2; }
	bash tools/cmperf-compare.sh $(PARENT) $(PAIRS) $(ARGS)

# Tiny two-axis sweep campaign through the sweep engine: an end-to-end smoke
# of expansion, the parallel runner, aggregation and the CSV emitter. CI
# uploads SWEEP_SMOKE.csv as an artifact; the emitter is deterministic, so
# the artifact's bytes are stable per commit whatever -parallel is.
sweep-smoke:
	$(GO) run ./cmd/cmsim -scenario p2p -parallel 8 -replicates 2 \
		-sweep "link[0].loss=0,0.01" -sweep "workload[0].flows=1,2" \
		-csv > SWEEP_SMOKE.csv

# Churn soak: the canned host-fault campaign (CM restarts x notify-drop
# rates over the churn scenario) with the invariant checker on — any
# stranded flow, leaked grant or epoch mismatch in any replicate fails the
# target (see docs/ROBUSTNESS.md). CI uploads CHURN_SOAK.csv next to
# SWEEP_SMOKE.csv; the CSV bytes are identical whatever -parallel is.
soak-smoke:
	$(GO) run ./cmd/cmsim -campaign examples/campaigns/churn-soak.json \
		-parallel 8 -check-invariants -csv > CHURN_SOAK.csv

# $(call gotest-run,<flags>,<names>,<packages>) runs `go test -run` over the
# '|'-joined test names, after tools/check-run-pattern.sh has checked that each
# name is a test of the packages: go test passes a pattern that matches nothing.
gotest-run = GO=$(GO) bash tools/check-run-pattern.sh '$(2)' $(3) && $(GO) test $(1) -run '$(2)' $(3)

# In-run observability smoke: re-run the flight recorder's zero-alloc gate,
# the -short determinism matrix (probes, snapshots and the recorder armed on
# every cell) with its shard byte-identity check, the probe-series determinism check, the one-sampling-rule check
# (per-target probes equal their aggregate twins) and the past-end dynamics
# check, then a sharded churn run with per-target and aggregate
# probes, the flight recorder, mid-run snapshot invariant checking, the
# shard-execution timeline and the structured run report all armed (-report
# exits nonzero on a non-clean faults verdict, like -check-invariants), then
# one small sweep with plot emission. CI uploads PROBE_SMOKE.csv,
# SHARD_TIMELINE.json, RUN_REPORT.{json,md} and plots/ (see
# docs/OBSERVABILITY.md).
probe-smoke:
	$(call gotest-run,,TestRecorderAppendZeroAlloc,./internal/probe/)
	$(call gotest-run,-short,TestDeterminismMatrix|TestShardedRunsAreByteIdentical|TestProbeSeriesDeterministic|TestProbeTargetsMatchAggregateTwins|TestPastEndEventStaysUnfiredPastDuration,\
		./internal/scenario/ ./internal/faults/)
	$(GO) run ./cmd/cmsim -scenario churn -shards 4 \
		-probe "link[0].queue_depth" -probe "link[0].utilization" \
		-probe "cm[s0].cwnd" -probe "links.*-fwd.drops" \
		-trace-depth 512 -snapshot-every 1s \
		-check-invariants -probe-csv PROBE_SMOKE.csv \
		-timeline-out SHARD_TIMELINE.json \
		-report RUN_REPORT.json -report-md RUN_REPORT.md > /dev/null
	$(GO) run ./cmd/cmsim -scenario p2p -replicates 2 \
		-sweep "link[0].loss=0,0.01,0.02" -plot-dir plots -csv > /dev/null

# Routing-convergence smoke: the fat-tree route-flap scenario under the
# distance-vector control plane, swept over the routing-message drop rate
# (see docs/ROUTING.md). -check-invariants arms the faults checker, so any
# post-convergence blackhole drop, forwarding loop or unquiesced agent in
# any replicate fails the target. CI uploads ROUTE_SMOKE.csv; the aggregate
# drop probes in it show the blackhole window widening with the drop rate.
route-smoke:
	$(call gotest-run,,TestRouteFlapConvergence|TestRouteProtoFuzz,./internal/scenario/)
	$(GO) run ./cmd/cmsim -campaign examples/campaigns/route-smoke.json \
		-parallel 8 -check-invariants -csv > ROUTE_SMOKE.csv

# The smokes' deterministic artifacts and the examples' OUTPUT.txt files are
# committed: regenerate them and fail when any differs from the committed copy
# or a file appears under plots/ that is not committed. RUN_REPORT.* (a wall-clock Perf section) and
# SHARD_TIMELINE.json (wall-clock spans) are not deterministic and stay out.
# It also fails when a tracked file is over 512 KiB, which no source file or
# artifact comes near and a committed build always exceeds.
ARTIFACTS = SWEEP_SMOKE.csv CHURN_SOAK.csv FATTREE_SMOKE.csv ROUTE_SMOKE.csv PROBE_SMOKE.csv plots/ \
	$(EXAMPLES:%=%/OUTPUT.txt)
artifacts-check: sweep-smoke soak-smoke fattree-smoke route-smoke probe-smoke examples-smoke
	@out=$$(git status --porcelain --untracked-files=all -- $(ARTIFACTS)); \
	if [ -n "$$out" ]; then echo "smoke artifacts differ from the committed copy:"; echo "$$out"; \
		git --no-pager diff --stat -- $(ARTIFACTS); exit 1; fi
	@big=$$(git ls-files -z | xargs -0 -r stat -c '%s %n' 2>/dev/null | awk '$$1 > 512 * 1024'); \
	if [ -n "$$big" ]; then echo "tracked files over 512 KiB:"; echo "$$big"; exit 1; fi

# Every example, run: each examples/<name> program's stdout goes to
# examples/<name>/OUTPUT.txt, and a non-zero exit fails the target. The
# examples are deterministic (virtual clock, seeded links), so artifacts-check
# holds the files to their committed bytes.
EXAMPLES = $(patsubst %/main.go,%,$(wildcard examples/*/main.go))
examples-smoke:
	@set -e; for d in $(EXAMPLES); do \
		echo "$(GO) run ./$$d > $$d/OUTPUT.txt"; $(GO) run ./$$d > $$d/OUTPUT.txt; done

# Hierarchical-routing smoke: sweep the fat-tree builder's k parameter
# (param.* axes rebuild the topology per point), exercising suffix-domain
# routing end to end at two fabric scales. CI uploads FATTREE_SMOKE.csv; the
# CSV bytes are deterministic per commit.
fattree-smoke:
	$(GO) run ./cmd/cmsim -scenario fattree -parallel 4 -replicates 2 \
		-sweep "param.k=4,6" -csv > FATTREE_SMOKE.csv
