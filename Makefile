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

.PHONY: all build test vet race racecp benchsmoke expsmoke affcheck opcheck modelcheck statcheck spacecheck $(GATES) ci clean

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
# tests, and the whole of sim and Waffinity (event-order goldens included).
# The execution token passes from thread goroutine to thread goroutine, so
# the race detector is the cheapest proof that every hand-off still carries a
# happens-before edge. A subset of `race`, so `ci` does not repeat it.
racecp:
	$(GO) test -race ./... -run 'TestSmoke|TestParallelCP'
	$(GO) test -race -count=1 ./internal/sim ./internal/waffinity

# benchsmoke runs every package benchmark under internal/ for one iteration,
# so a benchmark that no longer builds or panics fails the gate. The numbers
# it prints mean nothing; see the files' own comments for measuring.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# expsmoke runs every table of the registry (`-exp all`) at a few-ms window:
# an experiment that no longer builds, runs or finishes fails the gate. The
# numbers it prints mean nothing; the tracked ones are `go run ./bench`.
expsmoke:
	$(GO) run ./cmd/waflbench -exp all -window 4ms -warmup 2ms

# affcheck enforces the single-point member resolution rule: among the
# facade sources, only member.go may index the Waffinity hierarchy's
# aggregate array directly — everything else routes through the Member
# helpers (volAffs/stripeAff/logicalAff).
affcheck:
	@bad=$$(grep -ln 'Aggrs\[' *.go | grep -v '^member\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "affcheck: direct h.Aggrs[...] access outside member.go:"; \
		grep -n 'Aggrs\[' $$bad; \
		exit 1; \
	fi; \
	echo "affcheck OK: Aggrs[] indexed only in member.go"

# opcheck enforces one path per namespace operation: among the non-test
# facade sources, only member.go — Member.apply, which the client ops, their
# *Direct entries and NVRAM replay all go through — may call the volume
# request methods, and it calls each exactly once.
VOLOPS = CreateFileAt|DeleteFile|RequestSnapshot|DeleteSnapshot|RequestRestore|RequestCloneBind|AddCloneRef|StartSplit
opcheck:
	@pat='\.(CreateFile|$(VOLOPS))\('; \
	bad=$$(grep -lE "$$pat" $$(ls *.go | grep -v -e '_test\.go$$' -e '^member\.go$$') || true); \
	if [ -n "$$bad" ]; then \
		echo "opcheck: volume request method called outside member.go:"; \
		grep -nE "$$pat" $$bad; \
		exit 1; \
	fi; \
	for op in $$(echo '$(VOLOPS)' | tr '|' ' '); do \
		n=$$(grep -o "\.$$op(" member.go | wc -l); \
		if [ "$$n" != 1 ]; then echo "opcheck: member.go calls $$op $$n times, want 1"; exit 1; fi; \
	done; \
	echo "opcheck OK: each volume request method called once, in member.go"

# modelcheck enforces one oracle: the content and existence probes belong to
# the reference model (internal/nsmodel.Verify), so no non-test file under
# harness/ may call one — a second oracle cannot grow back unnoticed.
modelcheck:
	@pat='\.(VerifyAgainst|SnapVerifyAgainst|VerifyRead|FileExists|SnapshotExists)\('; \
	bad=$$(grep -lE "$$pat" $$(ls harness/*.go | grep -v '_test\.go$$') || true); \
	if [ -n "$$bad" ]; then \
		echo "modelcheck: oracle probe called under harness/ (use nsmodel.Verify):"; \
		grep -nHE "$$pat" $$bad; \
		exit 1; \
	fi; \
	echo "modelcheck OK: harness/ probes the file system only through nsmodel.Verify"

# statcheck enforces one stats spine (wafl.Stats, stats.go): (a) the four
# views of it kept for bench/child.go are called by no non-test file under
# harness/, cmd/, examples/ or workload/, so a hand-taken before/after pair
# cannot grow back — a window's deltas are Results.Stats; (b) System has
# exactly the stats accessors listed, so a new counter is a field of its
# layer's struct and not one more accessor with its own roll-up; (c) among the
# non-test facade sources only stats.go imports reflect — the fold runs twice
# per window and never on a path a simulated event takes.
STATVIEWS = Counters|CPStats|BCacheStats|AdmissionStats
STATMETHODS = AdmissionStats BCacheStats CPPhaseReport CPStats CloneStats Counters MemberStats Stats TraceReport
statcheck:
	@pat='\.($(STATVIEWS))\('; \
	bad=$$(grep -rlE "$$pat" --include='*.go' harness cmd examples workload | grep -v '_test\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "statcheck: bench-only view of Stats called (read Results.Stats or System.Stats):"; \
		grep -nHE "$$pat" $$bad; \
		exit 1; \
	fi; \
	facade=$$(ls *.go | grep -v '_test\.go$$'); \
	got=$$(grep -ohE '^func \([a-z]+ \*System\) [A-Za-z]*(Stats|Counters|Report)\(' $$facade | \
		sed -E 's/.*\) ([A-Za-z]*)\($$/\1/' | LC_ALL=C sort | tr '\n' ' '); \
	if [ "$$got" != "$(STATMETHODS) " ]; then \
		echo "statcheck: System's stats accessors are $$got"; \
		echo "statcheck: want exactly $(STATMETHODS) — publish a counter as a field of its layer's struct"; \
		exit 1; \
	fi; \
	bad=$$(grep -l '"reflect"' $$facade | grep -v '^stats\.go$$' || true); \
	if [ -n "$$bad" ]; then echo "statcheck: reflect imported outside stats.go: $$bad"; exit 1; fi; \
	echo "statcheck OK: one Stats, no hand-bracketed window, reflect only in stats.go"

# spacecheck enforces one allocation space (internal/core/space.go): among
# the non-test sources, (a) the allocator's only Waffinity send is space.go's
# send, so every infrastructure message is counted for the drains in one
# place; (b) the per-CP fences (pendingFree, reserved) are mutated only in
# space.go, so the no-double-allocation / no-same-CP-reuse logic cannot be
# open-coded again; (c) the CP engine frees and credits only through
# Infra.Reclaim/AdjustAggrFree — cp.go names no counter and no free-commit
# call; (d) no call in core or cp passes a literal -1 ahead of another
# argument, the old "volume -1 means the aggregate" sentinel.
spacecheck:
	@core=$$(ls internal/core/*.go | grep -v '_test\.go$$'); \
	bad=$$(grep -l 'w\.Send(' $$core | grep -v '/space\.go$$' || true); \
	if [ -n "$$bad" ]; then echo "spacecheck: w.Send outside space.go (use in.send / in.post):"; grep -n 'w\.Send(' $$bad; exit 1; fi; \
	pat='(pendingFree|reserved)\.(set|clear|reset)\('; \
	bad=$$(grep -lE "$$pat" $$core | grep -v '/space\.go$$' || true); \
	if [ -n "$$bad" ]; then echo "spacecheck: fence mutated outside space.go (use reserve / release / endCP):"; grep -nE "$$pat" $$bad; exit 1; fi; \
	if grep -nE 'Counters|AggrFreeID|VolFreeID|CommitFrees' internal/cp/cp.go; then \
		echo "spacecheck: cp.go frees or credits by hand (use Infra.Reclaim / AdjustAggrFree)"; exit 1; fi; \
	if grep -nE '\(([^()]*[ ,(])?-1, ' $$core internal/cp/cp.go; then \
		echo "spacecheck: literal -1 passed as a leading argument (select the space, not a sentinel volume)"; exit 1; fi; \
	echo "spacecheck OK: one send point, fences only in space.go, cp frees through Reclaim"

$(GATES):
	$(GO) run ./cmd/waflbench -exp $@

# ci is the gate run before merging, and all that .github/workflows/ci.yml
# runs: every stage once.
ci: vet build affcheck opcheck modelcheck statcheck spacecheck race benchsmoke expsmoke $(GATES)

clean:
	rm -f wafltop waflbench *.test
