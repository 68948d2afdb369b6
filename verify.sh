#!/usr/bin/env sh
# Repo verification: build, vet, gofmt (the tree must be formatted),
# race-test, then the allocation pins without the race detector. The
# default pass includes
# the seed corpora of the native fuzz targets — FuzzDecode, the two-phase
# wire decoders FuzzAssembleWrite/FuzzAssembleRead and the "blocking ≡
# queued" property FuzzBlockingEquivalentToQueued — run as unit tests (seeds
# and committed regression inputs only; no timed fuzzing in the gate), the
# concurrent sharded-lock PFS stress test under the race detector
# (TestConcurrentShardedStress), and the source guards (DESIGN.md §10):
# pfs.TestEveryMethodIsCharged (every byte charged and counted), and in the
# root guards_test.go TestIOErrorsAreChecked (no dropped Close/Sync/Flush/
# Write* error), TestLockSections (locks released on every way out; srvMu a
# leaf), TestInternalHasNoWallClock and TestInternalReadsNoEnvironment, the
# 1-process Figure 6 write, whose cells must equal results/fig6_64mb.txt's,
# and a FLASH checkpoint written per variable and queued, in one-round and in
# many-round collectives, which must match.
# Toggles:
#   BENCH=1  run the repository's benchmark (benchmark/README.md: five
#            pinned workloads, end-to-end and per-layer, ~2 min), write this
#            PR's row of the perf trajectory to results/BENCH_<pr>.json and
#            compare it with the previous PR's committed row; any
#            end-to-end metric worse than its bound fails the run (slower;
#            not part of the gate).
#   FAULT=1  drive a FLASH checkpoint at a 1% transient fault rate with a
#            fixed seed; the run must complete, write the clean run's file
#            byte for byte and land the clean run's pfs_bytes_written; then
#            the 64 MiB Figure 6 write, serial baseline included, at 1% on
#            seeds 1-4, every cell of which must complete. (The
#            fault-injection suites run in the default pass.)
#   FT=1     rank failure (DESIGN.md §8) end to end: kill an aggregator
#            mid-round in an 8-rank FLASH checkpoint, once in the exchange
#            and once just after its request is issued, and in its read-back
#            just after a read round is issued with an earlier one still in
#            flight; the run must exit non-zero with the revocation naming
#            the killed rank, still write its -out image, -span-out file
#            and -json record, that image must be ncvalidate-clean, the
#            span file must show the detection once per survivor (7
#            ft_detect spans in nctrace summary) and repeat when the leg
#            runs again (to the byte, or times aside where the srvMu race
#            moves them), and the record must count the
#            detection (ft_failures_detected). (The rank-kill
#            suites need no pass of their own: the detector is always on,
#            so they run in the default go test -race ./... above, and a
#            deadlock is a typed error there, not a hang.)
#   TRACE=1  smoke the span pipeline: a small collective write with
#            -span-out, then nctrace timeline/critical/imbalance over the
#            emitted Chrome trace (which must parse and name a critical
#            path).
set -eu

cd "$(dirname "$0")"

go build ./...
go vet ./...
test -z "$(gofmt -l .)"
go test -race ./...
# The allocation pins (root alloc_regress_test.go, internal/mpi's warm
# reductions) skip under the race detector, where sync.Pool drops buffers,
# so the pass above never enforces them: run them once without it.
go test -run '^TestAllocs' . ./internal/mpi/
# The fuzz targets' seeds, by name: without -fuzz each f.Add seed and each
# file under testdata/fuzz runs once as a unit test. (To fuzz for real:
# go test ./internal/mpiio -run '^$' -fuzz FuzzAssembleWrite -fuzztime 30s.)
go test -run 'Fuzz' ./internal/cdf/ ./internal/mpiio/ ./internal/integration/
# Figure 6's 1-process write repeats to the digit (one rank has no
# server-lock race), so its cells must equal the committed ones: a setup
# write still in flight when a measured phase starts would show there.
fig6_1p='/^Write/,/^$/ { if ($1 == "serial") print $1, $3; else if ($2 ~ /^[0-9.]+$/) print $1, $2 }'
fig6dir=$(mktemp -d)
awk "$fig6_1p" results/fig6_64mb.txt > "$fig6dir/want"
go run ./cmd/pnetcdf-bench -size 64mb -op write -procs 1 | awk "$fig6_1p" > "$fig6dir/got"
diff "$fig6dir/want" "$fig6dir/got" \
    || { echo "fig6: the 1-process write differs from results/fig6_64mb.txt" >&2; exit 1; }
rm -rf "$fig6dir"
# FLASH's queued mode writes the published checkpoint to the byte: one
# collective per unknown and every unknown queued under one WaitAll must
# give identical files, a valid one, and the queued read-back must complete.
# The second pair runs 64 KiB rounds, so each aggregator's client cache
# holds many rounds in flight (over a hundred in the queued collective).
flashdir=$(mktemp -d)
flash_pair() { # name, then the flashio-bench options of the pair
    name=$1
    shift
    for queued in false true; do
        go run ./cmd/flashio-bench -block 8 -procs 8 -files checkpoint "$@" \
            -queued="$queued" -out "$flashdir/${name}_$queued.nc" > /dev/null
    done
    cmp "$flashdir/${name}_false.nc" "$flashdir/${name}_true.nc"
    go run ./cmd/ncvalidate "$flashdir/${name}_true.nc"
}
flash_pair one_round -blocks-per-proc 4
flash_pair many_round -blocks-per-proc 20 -cb-buffer-size 65536
# README's real-file walkthrough, on the one-round checkpoint: dump its
# header, copy it as CDF-2 on 4 KiB boundaries, and the copy must validate
# and compare equal to its source.
ckpt="$flashdir/one_round_true.nc"
go run ./cmd/ncdump -h "$ckpt" > /dev/null
go run ./cmd/nccopy -k 2 -align 4096 "$ckpt" "$flashdir/ckpt64.nc"
go run ./cmd/ncvalidate "$flashdir/ckpt64.nc"
go run ./cmd/ncdiff "$ckpt" "$flashdir/ckpt64.nc" > /dev/null
go run ./cmd/flashio-bench -block 8 -procs 8 -blocks-per-proc 4 -queued -read > /dev/null
rm -rf "$flashdir"

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
    # The fault-injection suites themselves run in the default
    # go test -race ./... above (no test reads an environment variable or
    # -short there, so a re-run here would only repeat them, mostly from
    # the test cache).
    # A fault cuts a request where it struck and pfs resumes it from the
    # cut, so the faulted checkpoint is the clean one, its bytes moved once.
    fdir=$(mktemp -d)
    go build -o "$fdir/" ./cmd/flashio-bench ./cmd/pnetcdf-bench
    "$fdir/flashio-bench" -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -out "$fdir/clean.nc" -json "$fdir/clean.json" >/dev/null
    "$fdir/flashio-bench" -block 8 -procs 8 -blocks-per-proc 20 \
        -files checkpoint -fault-rate 0.01 -fault-seed 2003 -stats \
        -out "$fdir/fault.nc" -json "$fdir/fault.json"
    cmp "$fdir/clean.nc" "$fdir/fault.nc"
    written() { grep -o '"pfs_bytes_written": [0-9]*' "$1"; }
    test "$(written "$fdir/clean.json")" = "$(written "$fdir/fault.json")"
    for seed in 1 2 3 4; do
        "$fdir/pnetcdf-bench" -size 64mb -op write -procs 2,4 \
            -fault-rate 0.01 -fault-seed "$seed"
    done
    rm -rf "$fdir"
fi

if [ "${FT:-0}" = "1" ]; then
    # End-to-end: 8-rank many-round FLASH checkpoint, aggregator rank 4
    # killed (cb_nodes=2 places aggregators at ranks 0 and 4) in the
    # exchange phase, and again just after it issues a round's write — by
    # then that write's bytes have landed; only its virtual end and its
    # verdict are outstanding. The read-back leg writes the checkpoint
    # undisturbed and kills rank 4 in the read: -read arms the kill after the
    # write, and occurrence 1 is its second round's read, issued while the
    # first is still in flight. Every survivor returns the same revocation,
    # so the run fails with it; the file it dumps is valid at the header
    # EndDef committed, the span file it still writes holds the failed
    # run's spans, one ft_detect per survivor among them, and is the same
    # on a second run of the leg; its -json record holds the failed run's
    # counters, the detection among them.
    ftdir=$(mktemp -d)
    go build -o "$ftdir/" ./cmd/flashio-bench
    for leg in "mid_exchange" "after_issue" "after_issue -read -kill-occurrence 1"; do
        for rep in 1 2; do
            # $leg unquoted: the kill point, then the leg's own options.
            if "$ftdir/flashio-bench" -block 8 -procs 8 -blocks-per-proc 20 \
                -files checkpoint -cb-buffer-size 65536 -cb-nodes 2 \
                -kill-rank 4 -kill-point $leg \
                -out "$ftdir/ft.nc" -span-out "$ftdir/spans$rep.json" \
                -stats -json "$ftdir/run.json" > /dev/null 2> "$ftdir/err"; then
                echo "FT: the run with rank 4 killed at $leg succeeded" >&2
                exit 1
            fi
        done
        # The mid-exchange leg repeats to the byte. The other two move
        # aggregator requests' virtual times with the order in which their
        # goroutines reach a shared server (the srvMu race, ROADMAP item 4),
        # so there the two runs must record the same spans, times aside.
        if [ "$leg" = mid_exchange ]; then
            cmp "$ftdir/spans1.json" "$ftdir/spans2.json"
        else
            for rep in 1 2; do
                sed 's/"ts":[^,]*,"dur":[^,]*,//g' "$ftdir/spans$rep.json" > "$ftdir/untimed$rep"
            done
            cmp "$ftdir/untimed1" "$ftdir/untimed2"
        fi || { echo "FT: two runs of the kill at $leg wrote different span files" >&2; exit 1; }
        grep -q 'communicator revoked (failed ranks \[4\])' "$ftdir/err" \
            || { echo "FT: no revocation naming rank 4 after a kill at $leg:" >&2; cat "$ftdir/err" >&2; exit 1; }
        go run ./cmd/ncvalidate "$ftdir/ft.nc"
        go run ./cmd/nctrace -servers 2 summary "$ftdir/spans1.json" > "$ftdir/summary"
        grep -q '^ft_detect  *7 ' "$ftdir/summary" \
            || { echo "FT: the span file of the kill at $leg does not hold one ft_detect per survivor (7):" >&2; grep ft_detect "$ftdir/summary" >&2; exit 1; }
        grep -q '"ft_failures_detected": [1-9]' "$ftdir/run.json" \
            || { echo "FT: the -json file of the kill at $leg counts no ft_failures_detected" >&2; exit 1; }
        rm -f "$ftdir/ft.nc" "$ftdir"/spans?.json "$ftdir"/untimed? "$ftdir/run.json"
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
