GO ?= go

# The gates of the harness registry (harness.Experiments, Gate set), one make
# stage each, named as waflbench names them:
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

.PHONY: all build test vet race racecp benchsmoke fuzzsmoke expsmoke $(GATES) ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# racecp is the focused race gate for work on the CP engine or the simulation
# kernel: the smoke tests plus the parallel-CP regression and determinism
# tests and the nfsmix switch budget (a WaitUntil condition running on the
# dispatcher's coroutine, at load), and the whole of sim and Waffinity
# (event-order goldens included).
# Simulated threads are iter.Pull coroutines and the execution token moves by
# coroutine switch, each of which iter annotates as a release/acquire pair: the
# race detector is the cheapest proof that nothing touches simulation state
# from outside that chain. A subset of `race`, so `ci` does not repeat it.
racecp:
	$(GO) test -race ./... -run 'TestSmoke|TestParallelCP|TestNFSMixSwitchBudget'
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

# expsmoke runs every table of the registry (`-exp all`) at a few-ms window:
# an experiment that no longer builds, runs or finishes fails the gate. The
# numbers it prints mean nothing; the tracked ones are `go run ./bench`.
expsmoke:
	$(GO) run ./cmd/waflbench -exp all -window 4ms -warmup 2ms

$(GATES):
	$(GO) run ./cmd/waflbench -exp $@

# ci is the gate run before merging, and all that .github/workflows/ci.yml
# runs: every stage once. The architecture rules (one apply path, one oracle,
# one stats spine, one allocation space, one owner of the on-media tree, no
# unused knob or export) are rows of arch_test.go and run with the tests.
ci: vet build race benchsmoke fuzzsmoke expsmoke $(GATES)

clean:
	rm -f wafltop waflbench *.test
