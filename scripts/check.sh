#!/bin/sh
# Tier-1 verification: build, vet, test, and race-test everything.
# CI and pre-commit both run this script; keep it fast and exhaustive.
set -eu
cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

# Formatting: every Go file must be gofmt-clean, bench/ included. The
# analyzer fixtures under testdata are exempt: they are inputs, not code.
echo '== gofmt -l'
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Determinism & shard-safety lints: no effectful map-range iteration, no
# blocking calls in event callbacks, no dropped event handles, no HIB
# recorders that bypass the trace pipeline, no filesystem access outside
# the spill writer — and the interprocedural suite: taint (no wall clock,
# global math/rand, env, or host-identity read in sim-facing code,
# directly or through any call chain), noalloc (//tgvet:noalloc hot paths
# proven allocation-free, transitively), and handle (pooled event-handle
# lifetime). Must exit clean before the test phases run; `make
# lint-fix-audit` lists every //tgvet:allow escape hatch with its reason.
echo '== tgvet ./...'
go run ./cmd/tgvet ./...

# Inlining gate: the event queue's per-item helpers must stay inlinable.
# seek runs on every peek and pop, bucketAt inside it, and heap4.peek on
# every advance; an edit that pushes one over the inliner's budget fails
# no test but costs the densest workloads several percent.
echo '== inlining gate (internal/sim)'
inl=$(go build -gcflags='telegraphos/internal/sim=-m' ./internal/sim 2>&1)
for fn in '(*msgQueue).seek' '(*msgQueue).bucketAt' '(*heap4).peek'; do
	if ! printf '%s\n' "$inl" | grep -qF "can inline $fn"; then
		echo "inlining gate: $fn is no longer inlinable" >&2
		exit 1
	fi
	echo "   $fn inlinable"
done

echo '== go test ./...'
go test ./...

echo '== go test -race ./...'
go test -race ./...

# Sharded-engine determinism: the same workloads must produce
# bit-identical traces and experiment results on 1, 2, 4, and 8 shards,
# with the shard workers packed onto one OS thread and spread across four.
echo '== shard determinism (-cpu 1,4)'
go test ./internal/simtest -run TestShardInvariantTraceHash -cpu 1,4 -count 1
go test ./internal/experiments -run TestExperimentsShardInvariant -cpu 1,4 -count 1
# The round workers' spin-then-park barrier and their lifecycle, with
# every worker packed onto one OS thread and spread across four.
go test ./internal/sim -run 'TestProc|TestGroup' -cpu 1,4 -count 1

# Hot-path allocation budgets: schedule/fire/recycle and Chan.Send must
# stay at zero allocations per event in steady state, and so must the
# streaming trace pipeline's ring append + k-way drain + incremental hash,
# the link FIFOs and ARQ window per packet, the HIB's remote read and
# fetch&inc beyond the future the requester waits on, and the HIB's
# offer of each received packet to an installed coherence protocol.
# Node memory word accesses allocate nothing once their leaf exists (and
# zero stores never do), and the online checker's history builder and
# fence bookkeeping recycle their records. A replica store's update
# round trip (UpdateFwd, ReflectedWrites, WriteAcks) takes its packets
# from the boards' pool and runs on prebound handlers. Link crossings
# allocate nothing on one engine or across two shards, blocking waits
# reuse their futures, completions and waiter arrays, and the TLB's
# FIFO shifts within its array, so a whole cluster of blocking loads,
# fetch&incs, posted stores and fences runs allocation-free once warmed,
# at one shard and at two. A switch forwards without allocating, also
# when its output stage asks for wire-clear events. The same clusters
# also stay within their work budgets: engine work items per operation.
echo '== allocation and work budgets (-cpu 1,4)'
go test ./internal/sim -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/trace -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/link ./internal/hib ./internal/switchfab -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/mem ./internal/linearize ./internal/coherence -run 'Allocs$' -cpu 1,4 -count 1
go test ./internal/core ./internal/mmu -run 'Allocs$|WorkBudgets$' -cpu 1,4 -count 1

# TGE1 spill round trip through the CLIs: a sharded chaos run pages its
# merged stream to disk, and replaying the file offline must recompute
# the run's trace hash.
echo '== TGE1 spill round trip'
spilldir=$(mktemp -d)
run_hash=$(go run ./cmd/tgchaos -seed 3 -shards 2 -spill "$spilldir/s.tge" |
	sed -n 's/.* hash=\(0x[0-9a-f]*\) .*/\1/p')
file_hash=$(go run ./cmd/tgtrace events "$spilldir/s.tge" |
	sed -n 's/^hash: *\(0x[0-9a-f]*\)$/\1/p')
rm -rf "$spilldir"
if [ -z "$run_hash" ] || [ "$run_hash" != "$file_hash" ]; then
	echo "spill round trip: run hash '$run_hash', spill file hash '$file_hash'" >&2
	exit 1
fi
echo "   hash $run_hash"

# Throughput floor: a short single-shard PDES smoke must stay above the
# floor recorded by `make bench` (BENCH_pdes.floor). The floor is scaled
# down on hosts that run the calibration spin slower than the recording
# host, so this catches engine regressions, not slow CI hardware.
echo '== PDES throughput floor'
go test ./internal/experiments -run '^$' -bench BenchmarkPDESThroughputFloor -benchtime 3x -count 1

echo '== tgchaos 2- and 4-shard smoke'
go run ./cmd/tgchaos -seeds 10 -shards 2
# Four shards: serial stretches choose among more than two queue heads.
go run ./cmd/tgchaos -seeds 10 -shards 4

# In-network collective smoke (DESIGN.md §16): E15 runs the 64-node
# in-fabric vs host-side barrier comparison and checks that a 64-node
# hot-counter fetch&add stream reaches the same final count with
# switch-level combining as without it.
echo '== collectives smoke (E15)'
go run ./cmd/tgbench -exp E15 >/dev/null

# Memory-model conformance: the trimmed litmus matrix must be free of
# linearizability/fence violations and must still reproduce the
# Galactica baseline's §2.4 anomaly. The quick sweep includes the
# combining-enabled arms of every fetch&inc test.
echo '== tglitmus quick sweep'
go run ./cmd/tglitmus -quick

# Topology-zoo gate (DESIGN.md §17): a litmus smoke on the 16-node
# torus — the memory-model verdicts must not depend on the wires the
# protocol runs over. (The deadlock-freedom harness in
# internal/topology already ran under `go test ./...`.)
echo '== tglitmus torus smoke'
go run ./cmd/tglitmus -topo -quick -tests SB,MP+fence >/dev/null

# Coverage ratchet for the checker packages, the link layer, the HIB and
# the coherence protocols: raise the minimum when you raise the coverage,
# never lower it.
echo '== checker coverage ratchet'
check_cover() {
	pkg="$1"; min="$2"
	profile=$(mktemp); trap 'rm -f "$profile"' EXIT
	pct=$(go test -coverprofile="$profile" "./$pkg" \
		| sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	rm -f "$profile"
	if [ -z "$pct" ]; then
		echo "coverage ratchet: no coverage figure for $pkg" >&2; exit 1
	fi
	if [ "$(awk -v p="$pct" -v m="$min" 'BEGIN{print (p>=m)?1:0}')" != 1 ]; then
		echo "coverage ratchet: $pkg at ${pct}%, minimum is ${min}%" >&2; exit 1
	fi
	echo "   $pkg ${pct}% (minimum ${min}%)"
}
check_cover internal/linearize 85
check_cover internal/litmus 75
check_cover internal/consistency 90
check_cover internal/analysis 85
check_cover internal/collective 80
check_cover internal/topology 90
check_cover internal/link 85
check_cover internal/coherence 90
check_cover internal/hib 70

# The benchmark is a nested module, so the root `./...` phases skip it.
# Its TestSimLayersMatchSource pins the internal/sim names the per-layer
# ledger attributes profile samples by.
echo '== bench module'
(cd bench && go vet ./... && go test ./...)

echo 'tier-1: all checks passed'
