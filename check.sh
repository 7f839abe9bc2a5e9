#!/bin/sh
# check.sh — the tier-1 gate: formatting, vet, build, race tests,
# fuzz smoke over the checked-in corpus, and coverage floors on the
# invariant-bearing packages. Run from the repo root; exits non-zero
# on the first failure.
set -e

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

# staticcheck is gated: CI installs a pinned version (see
# .github/workflows/ci.yml); local runs use it iff it's on PATH so the
# gate never requires network access from a dev box.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck: not on PATH, skipping (CI runs it pinned)" >&2
fi

# Site-mutex gate. (1) The lifecycle core (internal/site/lifecycle.go)
# is the only file allowed to acquire s.mu — the per-txn commit path
# and the per-message handler path run on stripes, the item state under
# them and atomics alone. (2) An item's volatile state has one home and
# one guard (item.go: itemState under its admission stripe), so the
# package may declare only the mutexes listed here — a new one is a
# second path to state the stripe already covers — and may not import
# the lock-table package.
mu_violations=$(grep -n 's\.mu\.\(Lock\|Unlock\)' internal/site/*.go | grep -v '^internal/site/lifecycle\.go:' || true)
if [ -n "$mu_violations" ]; then
	echo "site-mutex gate: s.mu acquired outside lifecycle.go:" >&2
	echo "$mu_violations" >&2
	exit 1
fi
allowed_mutexes='site.go:stripes site.go:lifeMu site.go:acceptMu site.go:ckptHookMu site.go:mu item.go:mu demand.go:mu'
for f in internal/site/*.go; do
	case "$f" in *_test.go) continue ;; esac
	if grep -q '^[[:space:]]*sync\.\(RW\)\{0,1\}Mutex' "$f"; then
		echo "site-mutex gate: $f embeds a mutex" >&2
		exit 1
	fi
	# Field declarations: "<name> [[]]sync.[RW]Mutex".
	for name in $(sed -n 's/^[[:space:]]*\([A-Za-z_][A-Za-z0-9_]*\)[[:space:]]\{1,\}\(\[\]\)\{0,1\}sync\.\(RW\)\{0,1\}Mutex.*/\1/p' "$f"); do
		case " $allowed_mutexes " in
		*" $(basename "$f"):$name "*) ;;
		*)
			echo "site-mutex gate: $f declares mutex '$name', not on the allow-list" >&2
			exit 1
			;;
		esac
	done
done
if grep -n '"dvp/internal/lock"' internal/site/*.go | grep -v '_test\.go:'; then
	echo "site-mutex gate: internal/site imports dvp/internal/lock" >&2
	exit 1
fi
echo "site-mutex gate: s.mu confined to lifecycle.go, $(echo $allowed_mutexes | wc -w) allow-listed mutexes, no lock table"
# The Lamport clock is one atomic word: drawing a timestamp takes no
# lock, so the clock package does not import sync.
if grep -n '"sync"' internal/tstamp/*.go | grep -v '_test\.go:'; then
	echo "site-mutex gate: internal/tstamp imports sync (the clock is one atomic word)" >&2
	exit 1
fi
# The group log's force rule is a pure value: it takes instants and
# answers, so it takes no lock and reads or waits on no clock.
if grep -nE '"sync|time\.(Now|Since|AfterFunc|Sleep)' internal/wal/forcepolicy.go; then
	echo "purity gate: internal/wal/forcepolicy.go locks or reads a clock (the log passes it instants)" >&2
	exit 1
fi
# The site's protocol rules (§5's donor and requester) are pure values
# too: they take what the mechanism read under its locks and answer, so
# rules.go takes no lock, reads no clock, touches no log, store, channel
# or network, holds no *Site and sends nothing.
if grep -nE '"(sync|time)"|"dvp/internal/(wal|obs|vmsg|store|simnet|tcpnet)"|\*Site\b|\.(Now|Since|After|NewTimer|Sleep)\(|(^|[^A-Za-z])send[A-Za-z]*\(' internal/site/rules.go; then
	echo "purity gate: internal/site/rules.go locks, reads a clock, holds the site or sends (the mechanism carries its rules out)" >&2
	exit 1
fi
# A trace takes every instant from its caller, which read it from its
# site's clock for its histograms: the trace reads no clock of its own.
# The flight recorder and recovery read the site's clock (Flight's
# SetClock, the Vm manager's), so a dump keeps one timeline.
for f in internal/obs/trace.go internal/obs/flight.go internal/recovery/recovery.go; do
	if grep -n 'time\.\(Now\|Since\)' "$f"; then
		echo "purity gate: $f reads the wall clock (it takes the site's clock)" >&2
		exit 1
	fi
done

# Option gate. Every independently settable value doubles the
# configurations tests and benchmarks must cover, so the option
# surfaces carry ceilings (exported field names per Config struct,
# flag declarations in dvpnode) — a new one has to remove one — and the
# options and second paths the knob audit deleted (parallel replay, the
# pre-hardening transport, the batch fallback, the byte checkpoint
# trigger, the root package's even-share rebalancer, the ungrouped and
# lingering site logs, the group log's batch-size option, the
# two-question resend rule and its site-side cap, the optional trace
# tail, the record kind nobody wrote, the
# waiter's accept tally, the tests of a zero-value Vm forced under its
# stripe and of one riding its reader's commit (a full read's donor that
# holds nothing answers NoShare now), the file log's per-record frame header and locked second
# scan loop, the per-label latency cache and its lock, the per-item
# demand gauge, the trace-ring size, the tcpnet tuning knobs, the
# fixed-width site id the compact codec replaced, the per-item applied
# LSN the one crash model made dead, dvpnode's own placement path, and
# the stamp loop recovery ran over the store and the store's stamp
# write, now that an item's stamp lives in its state, and the baseline
# write message and the quota query nothing sent)
# may not come back under their old names.
count_fields() { # file, struct type: exported field names, comma lists counted per name
	awk -v t="$2" '
		$0 ~ "^type " t " struct {" { in_s = 1; next }
		in_s && /^}/ { exit }
		in_s && match($0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) {
			names = substr($0, RSTART, RLENGTH)
			c += gsub(/,/, ",", names) + 1
		}
		END { print c + 0 }' "$1"
}
check_options() { # label, count, ceiling
	if [ "$2" -gt "$3" ]; then
		echo "option gate: $1 has $2 options, ceiling $3 (remove one before adding one)" >&2
		exit 1
	fi
}
n_dvp=$(count_fields dvp.go Config)
n_site=$(count_fields internal/site/site.go Config)
n_rebal=$(count_fields internal/site/demand.go RebalanceConfig)
n_tcp=$(count_fields internal/tcpnet/tcpnet.go Config)
n_flags=$(grep -c '^[[:space:]]*fs\.[A-Za-z0-9]*Var(' cmd/dvpnode/main.go || true)
check_options dvp.Config "$n_dvp" 18
check_options site.Config "$n_site" 17
check_options site.RebalanceConfig "$n_rebal" 5
check_options tcpnet.Config "$n_tcp" 5
check_options 'cmd/dvpnode flags' "$n_flags" 14
deleted='RecoverOpts|RecoveryWorkers|replayParallel|NewScratch|NoShedPriority|appendBatchFallback|CheckpointEveryBytes|AdmissionStripes|GroupCommitMaxBatch|RetransmitMax|StartRebalancer|rebalanceOnce|MinTransfer|\.Rebalance\(|ckptMu|commitLocked|vmCreateLocked|vmCreateStable|vmAcceptLocked|acceptRun|oweAck|GroupCommitLinger|FileLogSync|NewSlowLog|GroupCommit:|Linger:|DueRetransmit|RetxStats|Overdue\(|AckRTT\(|retransmitCapFactor|encodeTraceTail|decodeTraceTail|encodeBase|decodeVmBase|RecBaseApplied|noteAccept|ZeroValueVmWaitsForItsForce|ZeroValueVmRidesTheCommit|fileHeaderLen|scanLocked|txnLatMu|txnLatSet|TraceBuf|DialBackoffMin|DialBackoffMax|DownAfter|MaxFrame|dvp_rebalance_demand|\.U16\(|AppliedLSN|createShares|raiseStamps|DB\.SetTS|MaxBatch:|forceHere|holdApplies|primeInline|KWrite|decodeWrite|QuotaQuery|QuotaReply'
if grep -rnE "$deleted" --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build .; then
	echo "option gate: a deleted option or path is named again (see above)" >&2
	exit 1
fi
echo "option gate: dvp.Config $n_dvp/18, site.Config $n_site/17, RebalanceConfig $n_rebal/5, tcpnet.Config $n_tcp/5, dvpnode flags $n_flags/14"

# One-assembly gate: site.Open builds every DvP site's group log and
# store. Outside the packages that own them (site, wal, recovery), the
# baselines and their 2PC assemblies, and bench/, no program builds
# either by hand.
assembly=$(grep -rnE 'wal\.NewGroupLog\(|store\.New\(\)' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . |
	grep -vE '^\./internal/(site|wal|recovery|baseline)/|^\./internal/harness/drivers\.go:|^\./examples/partition/main\.go:' || true)
if [ -n "$assembly" ]; then
	echo "assembly gate: a site log or store is built outside site.Open:" >&2
	echo "$assembly" >&2
	exit 1
fi
echo "assembly gate: every DvP site is built by site.Open"

go build ./...
# bench/ is a module of its own (dvp/bench), which ./... does not
# descend into: vet and build it here so that an internal/ API change
# that breaks the benchmark fails this gate, not the pipeline's.
go -C bench vet ./...
go -C bench build ./...
# -shuffle randomizes test order within each package: the layered site
# must not depend on test-ordering accidents to pass.
go test -race -shuffle=on ./...

# Stress pass over the site, log and Vm-channel tests that sit on an
# interleaving or a schedule —
# the one commit path's eight shapes, crash waking parked waiters, the
# flow checker on a live history, parked-Vm redelivery, batch accept,
# the Rds lock held through dispatch, commits overlapping a held force,
# a held Vm create, force and endpoint-open failures, the checkpoint cut
# across held flushes, acceptances riding other forces (the answer not
# held by a redelivery, the shortfall force budget, a crash dropping
# what nobody forced), credits held on a waiter until its commit record
# accepts them (acked at that force, dropped by a crash, logged on a
# timeout, copies earning no ack), the NoShare answer and the
# recordless read waiting for their fences (and no answer when the
# fenced force fails), the clock reservation (no stamp above it on the
# wire or in a log, a restarted donor declining below a read it
# answered, a reservation racing a checkpoint, one record per stride,
# an acceptance queueing its own, and a stamp that names no item — on
# the cluster and at a restarted donor that never held it)
# and the per-op-kind count budget, the group log's force rule on a
# table of instants and its mechanism carrying it out (forcing on
# demand, a pair sharing forces, a joined hold stopping its timer, Reset
# and Close cutting a hold short, Reset failing the waits on what it
# dropped, a lone committer's forces, forces
# serial under a race with the flusher, Reset, Close and a failed force
# over either runner's force, and a chaos crash-in-flush trap firing
# from a committer's), and the
# Vm resend schedule — vmsg's Due, its seed gap capped after an outage,
# and a site pair driving it tick by tick on virtual clocks — the
# cumulative ack riding the next request on a busy link and leaving at
# the tick on a quiet one, a gathering read's ack leaving at once, a
# waiter's timer stopped as it returns, a transaction's requests leaving
# in fold order, the flight recorder keeping its rare events
# under local and shortfall load, and the lock-free Lamport clock under
# mixed draws and raises, on one and two CPUs. CI runs this line
# through this script; it lives nowhere else.
stress_run='TestRunShapes|TestCrashWakes|TestFlowChecker|TestDeferred|TestVmBatchAcceptForces|TestSendValueHoldsLockThroughDispatch|TestHotItemCommitsOverlapTheForce|TestHeldCreateIsOutstandingNotSent|TestForceFailureStopsTheSite|TestEndpointOpenFailureStopsTheSite|TestCheckpointCutAcrossHeldFlushes|TestRedeliveryDoesNotHoldTheAnswer|TestShortfallForceBudget|TestCrashDropsUnforcedAccepts|TestVmCreditAtEnqueueAckAtDurability|TestNoShareWaitsForTheFence|TestNoShareLostWithItsFence|TestRecordlessReadWaitsForTheFence|TestNoShareDonorCrashDeclinesBelow|TestStampNamesNoItem|TestNoShareDonorCrashDeclinesAtTheTie|TestDeclineCarriesARestartedClock|TestNoStampAboveTheReservation|TestCheckpointRelogsARacingReservation|TestReservationStride|TestAcceptanceQueuesItsReservation|TestCrashInsideUnforcedAccept|TestCrashWhileHeldDropsTheCredit|TestTimeoutLogsHeldCredit|TestHeldDuplicateEarnsNoAck|TestCountBudgetPerOpKind|TestForcePolicy|TestGroupLogForcesOnDemand|TestGroupLogHold|TestGroupLogInline|TestGroupLogResetLandsTheFlushInFlight|TestGroupLogResetFailsItsWaiters|TestGroupLogCloseDrainsThenRejects|TestCrashInFlushFiresInline|TestGroupLogCloseForcesUnwaited|TestGroupLogErrorFailsQueuedAndLater|TestOverdueByAge|TestDueBacksOffAndCaps|TestDueNoPending|TestAckResetsRetransmitBackoff|TestAckRTTEWMA|TestResetClearsRetxState|TestRetransmitSchedule|TestDueSeedCappedAfterOutage|TestAckRidesTheNextRequest|TestQuietLinkAckedAtTheTick|TestGatheredReadAcksAtOnce|TestAwaitStopsItsTimer|TestRequestsLeaveInFoldOrder|TestFlightKeepsRareEventsUnderLoad|TestClockConcurrent'
stress_pkgs='. ./internal/site ./internal/wal ./internal/vmsg ./internal/tstamp ./internal/chaos'
# A renamed test would drop out of the line silently: every name in it
# must match a test in its packages.
stress_tests=$(go test -list . $stress_pkgs)
for name in $(echo "$stress_run" | tr '|' ' '); do
	if ! echo "$stress_tests" | grep -qE -- "$name"; then
		echo "stress gate: $name matches no test in $stress_pkgs" >&2
		exit 1
	fi
done
go test -race -count=20 -cpu=1,2 -run "$stress_run" $stress_pkgs

# Dead-peer regression: the dial-rate bound against a closed port must
# hold under race. This is the PR-9 storm fix's dedicated gate — 500
# sends toward a dead peer in 500 ms may cost at most 25 dials, a bound
# a writer that dials once per frame cannot meet.
go test -race -run 'TestDeadPeerDialRateBounded' -count=1 ./internal/tcpnet

# Bench smoke: one iteration of the perf-bearing benchmarks, so the
# synced-file group log, write-only, mixed, Vm and recovery (full/*
# and checkpointed/* rows) benches and the control port's RESERVE
# stay runnable under `go test -bench` without paying full measurement
# time. -benchmem keeps allocs/op visible wherever these run.
go test -run='^$' -bench='BenchmarkLocalCommitParallel|BenchmarkLocalCommitWriteOnly|BenchmarkMixedCommitParallel|BenchmarkVmThroughput|BenchmarkRecover|BenchmarkServeReserve' -benchtime=1x -benchmem . ./internal/ctl

# Allocation-regression gate: a local write-only commit (8 committers,
# memory group log) must not allocate more per op than the measured
# figure plus two — headroom for scheduler noise, not for a
# reintroduced per-transaction allocation. Measured: 5 allocs/op
# (the no-wait locks are fields of the items' state; there is no
# per-transaction slice of held items, and a trace's steps live in
# the trace itself).
alloc_ceiling=7
allocs=$(go test -run='^$' -bench='BenchmarkLocalCommitWriteOnly' -benchtime=1000x -benchmem . |
	awk '/BenchmarkLocalCommitWriteOnly/ { print $(NF-1) }')
if [ -z "$allocs" ]; then
	echo "alloc gate: could not read allocs/op from the write-only bench" >&2
	exit 1
fi
if [ "$allocs" -gt "$alloc_ceiling" ]; then
	echo "alloc gate: BenchmarkLocalCommitWriteOnly at ${allocs} allocs/op, ceiling ${alloc_ceiling}" >&2
	exit 1
fi
echo "alloc gate: local write-only commit ${allocs} allocs/op (ceiling ${alloc_ceiling})"
# The same gate on the control path: one RESERVE through the control
# server — line read, parse, local commit, reply — on a memory group
# log. Measured: 6 allocs/op — the item's name and the op slice, the
# commit's result and trace, and the memory log's copies of the record.
# The reply is appended to a per-connection buffer, so no formatting
# allocates.
ctl_alloc_ceiling=8
allocs=$(go test -run='^$' -bench='BenchmarkServeReserve' -benchtime=1000x -benchmem ./internal/ctl |
	awk '/BenchmarkServeReserve/ { print $(NF-1) }')
if [ -z "$allocs" ]; then
	echo "alloc gate: could not read allocs/op from the control-path bench" >&2
	exit 1
fi
if [ "$allocs" -gt "$ctl_alloc_ceiling" ]; then
	echo "alloc gate: BenchmarkServeReserve at ${allocs} allocs/op, ceiling ${ctl_alloc_ceiling}" >&2
	exit 1
fi
echo "alloc gate: control-path RESERVE ${allocs} allocs/op (ceiling ${ctl_alloc_ceiling})"

# Fuzz smoke: a short randomized pass per target on top of the
# checked-in seed corpus (which includes envelopes and WAL records
# captured from chaos runs — regenerate with `dvpsim chaos -seed 7
# -corpus internal`, a schedule that checkpoints).
go test ./internal/wire -run='^$' -fuzz=FuzzUnmarshal -fuzztime=10s
go test ./internal/wire -run='^$' -fuzz=FuzzReusedWriter -fuzztime=10s
go test ./internal/wire -run='^$' -fuzz=FuzzTSAndSite -fuzztime=10s
go test ./internal/wal -run='^$' -fuzz=FuzzDecodeRecords -fuzztime=10s
go test ./internal/wal -run='^$' -fuzz=FuzzFileLogRecovery -fuzztime=10s

# Coverage floors. These packages carry the paper's algebra (core),
# the layered commit engine itself (site: admission, durability,
# item state, router, lifecycle),
# the exactly-once channel (vmsg), the serializability machinery (cc),
# the tracing/flight-recorder surface every failure dump depends on
# (obs), the §7 restart path (recovery), the stable log and its file
# framing (wal), and the peer-failure state machine (tcpnet); their
# coverage must not regress below the level at which the floors were
# recorded.
check_cover() {
	pkg=$1
	floor=$2
	pct=$(go test -cover -count=1 "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "coverage: could not read figure for $pkg" >&2
		exit 1
	fi
	if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p+0 < f+0) }'; then
		echo "coverage: $pkg at ${pct}%, below floor ${floor}%" >&2
		exit 1
	fi
	echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/core 97
check_cover ./internal/site 85
check_cover ./internal/vmsg 81
check_cover ./internal/cc 97
check_cover ./internal/obs 90
check_cover ./internal/recovery 90
check_cover ./internal/wal 91
check_cover ./internal/tcpnet 85
