GO ?= go

# The gates of the harness registry (harness.Experiments, Gate set), one make
# target each for a single run, named as waflbench names them (ci runs them
# all, clonesweep too, through registrycheck):
#   crashsweep    crash at 101 reproducible points (event indices + CP phase
#                 boundaries, both CP engines, one mid-shed overload point, 18
#                 boundaries of the clone/split/SnapRestore script, and 32
#                 event indices of three-client all-kinds random histories),
#                 recover, fsck, verify against the reference model
#                 (internal/nsmodel) - twice, via double crash - then quiesced
#   clustersweep  crash one member of a two-member cluster at 12 event
#                 indices while the survivor serves; recover in place, double
#                 crash, quiesce; per-member fsck and the model on each leg
#   overloadcheck open-loop burst, admission off vs on: off must blow the
#                 latency-sensitive p99.9 up, on must shed bulk and bound it
GATES = crashsweep clustersweep overloadcheck

.PHONY: all build test vet fmt race racecp benchsmoke fuzzsmoke expsmoke cover $(GATES) registry registrycheck ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any file, and names the files.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needs to rewrite:"; echo "$$files"; exit 1; fi

race:
	$(GO) test -race ./...

# racecp is the focused race gate for work on the CP engine or the simulation
# kernel: the smoke tests plus the parallel-CP regression and determinism
# tests and the nfsmix switch budget (a WaitUntil condition running on the
# dispatcher's coroutine, at load), the paths a user block's name takes
# (NVRAM replay, a clone split's copy, reconstruction from parity), a user
# L0's slot in its level-1 node (the model, range-interleaved cleaning,
# preserved CP images, slot arrays across CPs, one slot array per cycle),
# CP-owned buffers on the same frozen bits (their model), and the whole of
# sim and Waffinity (event-order goldens included).
# Simulated threads are iter.Pull coroutines and the execution token moves by
# coroutine switch, each of which iter annotates as a release/acquire pair: the
# race detector is the cheapest proof that nothing touches simulation state
# from outside that chain. A subset of `race`, so `ci` does not repeat it.
racecp:
	$(GO) test -race ./... -run 'TestSmoke|TestParallelCP|TestNFSMixSwitchBudget|TestReplayedNamesExpandExactly|TestLoggedPayloadIsTheBufferImage|TestSplitCopiesMarkedParentBlocks|TestUsedBlocksReconstruct|TestTimedReadsReconstruct|TestModelRandomOps|TestInterleavedRangeIterations|TestPreservedImageSideHome|TestSlotArray|TestOneSlotArrayPerCycle|TestModelCPOwnedBuffers'
	$(GO) test -race -count=1 ./internal/sim ./internal/waffinity

# benchsmoke runs every package benchmark under internal/ for one iteration,
# so a benchmark that no longer builds or panics fails the gate. The numbers
# it prints mean nothing; see the files' own comments for measuring.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# fuzzsmoke runs each fuzz target for 5 s past its seed corpus (plain `go test`
# runs only the seeds): the short-image rule of block.GetPtr and of every
# metafile decoder (inode records, bitmap recount, volume-table and snapdir
# entries, clone state), the tree walkers of fs.File, and aggregate.MountFrom
# over a damaged metafile block (an error, never a panic). Minimising each new
# input is capped at 1 s: at the default 60 s, shrinking one 4 KiB image takes
# the whole budget.
FUZZ = -run '^$$' -fuzztime 5s -fuzzminimizetime 1s
fuzzsmoke:
	$(GO) test $(FUZZ) -fuzz '^FuzzGetPtrPrefix$$' ./internal/block
	$(GO) test $(FUZZ) -fuzz '^FuzzWalk$$' ./internal/fs
	$(GO) test $(FUZZ) -fuzz '^FuzzDecodeRecordPrefix$$' ./internal/fs
	$(GO) test $(FUZZ) -fuzz '^FuzzRebindPrefix$$' ./internal/bitmap
	$(GO) test $(FUZZ) -fuzz '^FuzzDecodeVolumePrefix$$' ./internal/aggregate
	$(GO) test $(FUZZ) -fuzz '^FuzzMountFrom$$' ./internal/aggregate
	$(GO) test $(FUZZ) -fuzz '^FuzzDecodeEntryPrefix$$' ./internal/snap
	$(GO) test $(FUZZ) -fuzz '^FuzzDecodePrefix$$' ./internal/clone

# expsmoke runs every table of the registry (`-exp all`) at a few-ms window,
# then wafltop for 5 ms on each of its workloads (reports discarded, errors
# shown): an experiment or workload set-up that no longer builds, runs or
# finishes fails the gate. The numbers mean nothing; the tracked ones are
# `go run ./bench`.
WAFLTOP_WORKLOADS = seq random oltp nfs snapchurn clonefleet
expsmoke:
	$(GO) run ./cmd/waflbench -exp all -window 4ms -warmup 2ms
	$(GO) build -o wafltop ./cmd/wafltop
	for w in $(WAFLTOP_WORKLOADS); do ./wafltop -run 5ms -workload $$w > /dev/null || exit 1; done

$(GATES):
	$(GO) run ./cmd/waflbench -exp $@

# registry rewrites harness/testdata/registry.txt: the stdout of `waflbench
# -exp all`, then of every gate, at the default flags. When a command fails it
# leaves the file as it was and exits non-zero. Stdout is a pure function of
# the code (host times go to stderr), so registrycheck, a ci stage, runs the
# same commands and fails on any difference from the file as well as on a gate
# that exits non-zero. A change that moves a number rewrites the file with
# `make registry`, and says which rows moved and why. ~40 s on 2 vCPU.
REGISTRY = harness/testdata/registry.txt
REGISTRY_EXPS = all crashsweep clustersweep clonesweep overloadcheck
registry registrycheck:
	@$(GO) build -o waflbench ./cmd/waflbench
	@out=$$(mktemp); trap 'rm -f $$out' EXIT; failed=; \
	for e in $(REGISTRY_EXPS); do ./waflbench -exp $$e >> $$out || failed="$$failed $$e"; done; \
	if [ $@ = registry ]; then [ -n "$$failed" ] || cp $$out $(REGISTRY); else diff -u $(REGISTRY) $$out || failed="$$failed (stdout differs from $(REGISTRY))"; fi; \
	[ -z "$$failed" ] || { echo "$@ failed:$$failed"; exit 1; }

# cover runs the tests of every package but bench/ and the commands, with
# coverage of all of them, and fails on a function outside cmd/ that no test
# reaches unless cover.allow lists it with its non-test caller (cmd/waflbench
# via harness.Experiments, cmd/wafltop or bench/), and on a cover.allow entry
# whose function a test reaches or that is gone. It prints the statement
# coverage; ~10 s on 2 vCPU.
cover:
	@d=$$(mktemp -d); trap 'rm -rf $$d' EXIT; \
	pkgs=$$($(GO) list ./... | grep -v -e '/bench$$' -e '/cmd/'); \
	$(GO) test -coverpkg=$$(echo $$pkgs | tr ' ' ,) -coverprofile=$$d/cover.out $$pkgs > $$d/test.log || { cat $$d/test.log; exit 1; }; \
	$(GO) tool cover -func=$$d/cover.out > $$d/func; tail -1 $$d/func; \
	awk '$$NF == "0.0%" { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' $$d/func | sort -u > $$d/zero; \
	grep -v '^#' cover.allow | cut -f1 | sort -u > $$d/allowed; \
	bad=$$(grep -v '^#' cover.allow | awk -F'\t' '$$2 !~ /^(cmd\/waflbench via harness\.Experiments|cmd\/wafltop|bench\/)/'); \
	new=$$(comm -23 $$d/zero $$d/allowed); stale=$$(comm -13 $$d/zero $$d/allowed); \
	[ -z "$$bad" ] || printf 'cover.allow entries naming no non-test caller:\n%s\n' "$$bad"; \
	[ -z "$$new" ] || printf 'no test reaches these: test or delete them, or list them in cover.allow with their caller:\n%s\n' "$$new"; \
	[ -z "$$stale" ] || printf 'stale cover.allow entries (a test reaches them now, or they are gone):\n%s\n' "$$stale"; \
	[ -z "$$bad$$new$$stale" ]

# ci is the gate run before merging, and all that .github/workflows/ci.yml
# runs: every stage once. The architecture rules (one apply path, one oracle,
# one stats spine, one allocation space, one owner of the on-media tree, no
# unused knob or export) are rows of arch_test.go and run with the tests.
ci: vet fmt build race benchsmoke fuzzsmoke expsmoke cover registrycheck

clean:
	rm -f wafltop waflbench *.test
