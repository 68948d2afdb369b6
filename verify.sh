#!/usr/bin/env sh
# Repo verification: build, vet, race-test, then the allocation pins
# without the race detector. The default pass includes
# the seed corpora of the native fuzz targets — FuzzDecode, the two-phase
# wire decoders FuzzAssembleWrite/FuzzAssembleRead and the "blocking ≡
# queued" property FuzzBlockingEquivalentToQueued — run as unit tests (seeds
# and committed regression inputs only; no timed fuzzing in the gate), the
# concurrent sharded-lock PFS stress test under the race detector
# (TestConcurrentShardedStress), and the source guards (DESIGN.md §10):
# pfs.TestEveryMethodIsCharged (every byte charged and counted), and in the
# root guards_test.go TestIOErrorsAreChecked (no dropped Close/Sync/Flush/
# Write* error), TestLockSections (locks released on every way out; srvMu a
# leaf), TestInternalHasNoWallClock and TestInternalReadsNoEnvironment.
# Toggles:
#   BENCH=1  run the repository's benchmark (benchmark/README.md: five
#            pinned workloads, end-to-end and per-layer, ~2 min), write this
#            PR's row of the perf trajectory to results/BENCH_<pr>.json and
#            compare it with the previous PR's committed row; any
#            end-to-end metric worse than its bound fails the run (slower;
#            not part of the gate).
#   FAULT=1  re-run the fault-injection suites, and the open-time header
#            probe and prefetch read paths, under the race detector and
#            drive a FLASH checkpoint at a 1% transient fault rate with a
#            fixed seed; the run must complete and account its retries.
#   FT=1     rank-failure tolerance (DESIGN.md §8) end to end: kill an
#            aggregator mid-round in an 8-rank FLASH checkpoint, once in the
#            exchange and once just after its request is issued; survivors
#            must fail over, the file must be ncvalidate-clean, and
#            ft_failover_rounds must be nonzero. (The rank-kill and
#            revoke/shrink/failover suites need no pass of their own: the
#            detector is always on, so they run in the default
#            go test -race ./... above, and a deadlock is a typed error
#            there, not a hang.)
#   TRACE=1  smoke the span pipeline: a small collective write with
#            -span-out, then nctrace timeline/critical/imbalance over the
#            emitted Chrome trace (which must parse and name a critical
#            path).
set -eu

cd "$(dirname "$0")"

go build ./...
go vet ./...
go test -race ./...
# The allocation pins (root alloc_regress_test.go, internal/mpi's warm
# reductions) skip under the race detector, where sync.Pool drops buffers,
# so the pass above never enforces them: run them once without it.
go test -run '^TestAllocs' . ./internal/mpi/
# The fuzz targets' seeds, by name: without -fuzz each f.Add seed and each
# file under testdata/fuzz runs once as a unit test. (To fuzz for real:
# go test ./internal/mpiio -run '^$' -fuzz FuzzAssembleWrite -fuzztime 30s.)
go test -run 'Fuzz' ./internal/cdf/ ./internal/mpiio/ ./internal/integration/

if [ "${BENCH:-0}" = "1" ]; then
    # One row per PR: results/BENCH_<n>.json is generated, never edited. The
    # baseline is the highest-numbered row committed at HEAD and this PR's
    # row is the next number (re-running before the commit overwrites it);
    # -compare prints a verdict per (workload, metric) and exits non-zero on
    # any "worse". A PR that changes performance commits its row.
    bench_prev=$(git ls-tree --name-only HEAD results/ \
        | sed -n 's|^results/BENCH_\([0-9][0-9]*\)\.json$|\1|p' | sort -n | tail -1)
    if [ -z "$bench_prev" ]; then
        echo "BENCH: no results/BENCH_<n>.json is committed at HEAD to compare with" >&2
        exit 1
    fi
    bench_this=$((bench_prev + 1))
    go run ./benchmark -seed 1 -out "results/BENCH_${bench_this}.json"
    go run ./benchmark -compare "results/BENCH_${bench_prev}.json" \
        "results/BENCH_${bench_this}.json"
fi

if [ "${FAULT:-0}" = "1" ]; then
    # Explicit -timeout: these suites exercise crash/retry paths whose
    # failure mode is a hang, so bound them well below the 10m default.
    go test -race -timeout 300s \
        -run 'Fault|Crash|Commit|Retr|Agree|Short|Transient|Journal|Recover|Prefetch|ReadHeader|Probe' \
        ./internal/fault/ ./internal/cdf/ ./internal/netcdf/ \
        ./internal/mpiio/ ./internal/core/ ./internal/integration/
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -fault-rate 0.01 -fault-seed 2003 -stats
fi

if [ "${FT:-0}" = "1" ]; then
    # End-to-end: 8-rank many-round FLASH checkpoint, aggregator rank 4
    # killed (cb_nodes=2 places aggregators at ranks 0 and 4, so this
    # exercises file-domain reassignment, not just a lost writer) in the
    # exchange phase, and again just after it issues a round's write — by
    # then that write's bytes have landed; only its virtual end and its
    # verdict are outstanding. Survivors detect, shrink, fail over; the file
    # must validate and the counters must show the failover actually ran.
    ftdir=$(mktemp -d)
    for point in mid_exchange after_issue; do
        go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 20 \
            -files checkpoint -cb-buffer-size 65536 -cb-nodes 2 \
            -kill-rank 4 -kill-point "$point" \
            -stats -json "$ftdir/ft.json" -out "$ftdir/ft.nc"
        go run ./cmd/ncvalidate "$ftdir/ft.nc"
        grep -q '"ft_failover_rounds": *[1-9]' "$ftdir/ft.json" \
            || { echo "FT: ft_failover_rounds is zero after a rank kill at $point" >&2; exit 1; }
        grep -q '"ft_comm_shrinks": *[1-9]' "$ftdir/ft.json" \
            || { echo "FT: no communicator shrink recorded after a rank kill at $point" >&2; exit 1; }
    done
    rm -rf "$ftdir"
fi

if [ "${TRACE:-0}" = "1" ]; then
    mkdir -p results
    go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 4 \
        -files checkpoint -span-out results/TRACE_spans.json -stats
    go run ./cmd/nctrace timeline results/TRACE_spans.json > /dev/null
    go run ./cmd/nctrace critical results/TRACE_spans.json \
        | grep agg_write > /dev/null \
        || { echo "TRACE: critical path is empty" >&2; exit 1; }
    go run ./cmd/nctrace imbalance results/TRACE_spans.json > /dev/null
    go run ./cmd/nctrace -servers 12 summary results/TRACE_spans.json \
        | grep -q pfs_write \
        || { echo "TRACE: summary shows no pfs_write requests" >&2; exit 1; }
fi

echo "verify: OK"
