.PHONY: all build test bench bench-smoke lint metrics-smoke net-smoke \
	cluster-smoke raw-smoke perf-smoke ab loc verify clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Packed-table checks (PAR1 determinism, PAK1 size floor) on a small
# family, the MRO figures, the open-decode checks (OPN1: the tree
# and in-place decodes agree, in place is faster) on one ~660 KB line,
# and that line echoed intact through the connection loop (FLR1):
# seconds, not minutes, so CI can afford it per push.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Lint every example hierarchy with the full rule set (the classic six
# plus the cross-semantics rules) in SARIF mode; any error-severity
# finding (an ambiguous lookup) fails the build.  Warnings and notes
# (dominance fragility, dead declarations, baseline and MRO divergence)
# are expected on the paper figures and do not fail.  Figure 1 and the
# MRO diamond are the exceptions: they are deliberately *ambiguous*
# hierarchies, so the gate inverts there — the linter must flag them,
# and not flagging them fails the build.
lint:
	@for f in examples/*.cpp; do \
	  echo "lint $$f"; \
	  case $$f in \
	  examples/fig1.cpp|examples/diamond_mro.cpp) \
	    if dune exec --no-build bin/cxxlookup.exe -- lint $$f --rules all \
	         --format sarif --fail-on error > /dev/null; then \
	      echo "lint: expected ambiguous-lookup error missing in $$f" >&2; \
	      exit 1; \
	    fi ;; \
	  *) \
	    dune exec --no-build bin/cxxlookup.exe -- lint $$f --rules all \
	      --format sarif --fail-on error > /dev/null || exit 1 ;; \
	  esac; \
	done

# Observability end to end: two live scrapes of one serve process
# validated by the pure-OCaml exposition checker (format + counter
# monotonicity), and the SIGUSR1 flight-recorder dump.
metrics-smoke: build
	sh test/smoke/metrics_smoke.sh
	sh test/smoke/flight_recorder.sh

# The networked server end to end: the six-verb golden transcript over
# TCP (byte-identical to stdin mode), a loadgen burst, and two scrapes
# of the cxxlookup_server_… series through the exposition checker.
net-smoke: build
	sh test/smoke/serve_tcp.sh

# The cluster layer end to end under chaos: leader + WAL-shipping
# replica + shard router, each SIGKILLed at its worst moment — the
# replica mid-stream (restart over the same store must recover and
# converge), a router backend mid-batch (every response correct or
# an explicit backend_unavailable), and the router itself.
cluster-smoke: build
	sh test/smoke/cluster_chaos.sh

# The raw speed floor end to end: one server answering the same
# transcript over JSON lines and cxxlookup-rpc/1b frames must agree
# verdict for verdict (plus a binary loadgen burst, with the server's
# frame-decode histogram proving frames took the 1b path), and
# zero-copy snapshot recovery must survive SIGKILL identically in all
# three restore modes — including falling back past a damaged newest
# snapshot.
raw-smoke: build
	sh test/smoke/binary_rpc.sh
	sh test/smoke/mmap_crash.sh

# The serving benchmark's correctness replay, short: the input
# generator's seed-purity self-test, then one traced run per framing.
# A traced run replays every request in-process through
# Service.Server.handle_line / handle_frame and checks each verdict
# against Subobject.Spec.lookup; a wrong verdict exits 1.  The two
# untraced read runs pipeline 8 deep on two connections through the
# real server loop — a single serve process, then leader + replica
# behind the router — and check every answer against the same oracle;
# a wrong or lost answer exits 1.  The last run is the only one that
# sends writes to a real `serve --store`: it SIGKILLs and restarts the
# server three times, so the WAL replay at recovery is checked against
# the oracle on the mutated hierarchy.
perf-smoke: build
	python3 perfbench/run.py --selftest
	python3 perfbench/run.py --workload read-json --seed 1 --seconds 2 --trace 1
	python3 perfbench/run.py --workload read-1b-wide --seed 1 --seconds 2 --trace 1
	python3 perfbench/run.py --workload read-1b-wide --seed 1 --seconds 2 --trace 0
	python3 perfbench/run.py --workload routed-read --seed 1 --seconds 2 --trace 0
	python3 perfbench/run.py --workload edit-durable --seed 1 --seconds 2 --trace 0

# Paired A/B runs of the serving benchmark: AB_PAIRS alternating
# parent/change runs of perfbench/run.py, each side from its own git
# worktree, then per metric the parent's median and quartiles, the
# change's median and the change's win count.  Compares AB_PARENT
# (default HEAD~1) against AB_CHANGE (default HEAD); committed trees
# only, so commit first.
AB_PAIRS ?= 10
AB_WORKLOAD ?= routed-read
AB_SEED ?= 1
AB_SECONDS ?= 20
AB_PARENT ?= HEAD~1
AB_CHANGE ?= HEAD
ab:
	sh bench/ab.sh -n $(AB_PAIRS) -w $(AB_WORKLOAD) -s $(AB_SEED) \
	  -t $(AB_SECONDS) $(AB_PARENT) $(AB_CHANGE)

# Lines added, removed and net in lib/ and bin/, per library and in
# total, from LOC_BASE to the working tree (new files count once added
# to git): the one count every change that deletes code reports.
LOC_BASE ?= HEAD~1
loc:
	@git diff --numstat --no-renames $(LOC_BASE) -- lib bin | awk ' \
	  $$1 != "-" { split($$3, p, "/"); k = p[1] == "lib" ? "lib/" p[2] : p[1]; \
	    a[k] += $$1; d[k] += $$2; ta += $$1; td += $$2 } \
	  END { for (k in a) \
	          printf "%-14s +%-6d -%-6d net %+d\n", k, a[k], d[k], a[k] - d[k] | "sort"; \
	        close("sort"); \
	        printf "%-14s +%-6d -%-6d net %+d\n", "lib/ + bin/", ta, td, ta - td }'

# CI entry point: full build, full test suite, a smoke run of the
# telemetry pipeline end to end (parse -> all three engines -> JSON),
# a serve smoke test (canned cxxlookup-rpc/1 transcript through the
# service, diffed against its golden), a crash-recovery smoke test
# (durable serve, SIGKILL, restart over the same store, diff against
# the recovered-transcript golden), the raw-path smokes (both RPC
# framings agreeing, mmap crash recovery in every restore mode), the
# packed-table and MRO bench smoke checks, and the hierarchy linter
# (full rule set) over every example in SARIF mode.
verify:
	dune build @all
	dune runtest
	dune exec bin/cxxlookup.exe -- stats examples/fig9.cpp --stats-json \
	  | grep -q '"schema": "cxxlookup-stats/1"'
	dune exec bin/cxxlookup.exe -- serve --jobs 1 < test/smoke/serve_input.jsonl \
	  | diff - test/smoke/serve_golden.jsonl
	sh test/smoke/crash_recovery.sh
	$(MAKE) metrics-smoke
	$(MAKE) net-smoke
	$(MAKE) cluster-smoke
	$(MAKE) raw-smoke
	$(MAKE) bench-smoke
	$(MAKE) lint
	@echo "verify: OK"

clean:
	dune clean
