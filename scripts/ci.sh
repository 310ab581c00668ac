#!/bin/sh
# Tier-2 CI gate (see README "Testing"): vet, build, and the full test
# suite under the race detector. The parallel surfaces -race exercises:
# the campaign worker pool, the pipeline's singleflight cache and
# study scheduler (experiment.Study fan-out), the snapshot engines, and
# the telemetry registry every one of them reports into concurrently.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Campaign outcome pin (DESIGN.md §8): every campaign entry point's
# outcome fields on protected crc32 must match testdata byte for byte.
# The pin skips under -race (too slow there), so it runs plainly here.
go test ./internal/campaign -run TestCampaignOutcomesGolden -count=1
# Golden-convergence gate (DESIGN.md §8): full campaigns on raw susan
# write identical reclog bytes with snapshots (and so the early exit)
# on and off, at both layers. It also skips under -race.
go test ./internal/campaign -run TestSnapshotsOnOffReclog -count=1

# The benchmark is a Go module of its own, so `go test ./...` above
# skips it; build, vet and test it here so an API break in internal/
# shows up before the benchmark runs.
(cd flowbench && go vet ./... && go test ./...)

# Pipeline-equivalence smoke: the same artifact rendered through the
# memoized pipeline and through the legacy serial path must be
# bit-identical (DESIGN.md §9's determinism guarantee, end to end).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/experiments -only fig2 -bench crc32 -runs 40 -samples 120 -q \
    -pipeline=true >"$tmpdir/pipeline.out"
go run ./cmd/experiments -only fig2 -bench crc32 -runs 40 -samples 120 -q \
    -pipeline=false >"$tmpdir/serial.out"
diff "$tmpdir/pipeline.out" "$tmpdir/serial.out"

# Core-equivalence gate (DESIGN.md §11): the same campaigns executed on
# the predecoded fast cores and pinned to the reference loops must render
# bit-identical artifacts — fast-core drift in any outcome count, origin
# attribution, or golden counter shows up as a diff here.
go run ./cmd/experiments -only fig2 -bench crc32 -runs 40 -samples 120 -q \
    -refcore=false >"$tmpdir/fastcore.out"
go run ./cmd/experiments -only fig2 -bench crc32 -runs 40 -samples 120 -q \
    -refcore=true >"$tmpdir/refcore.out"
diff "$tmpdir/fastcore.out" "$tmpdir/refcore.out"

# Equivalence-pruning gate (DESIGN.md §10): a pruned campaign's SDC
# estimate must land inside the full campaign's 95% Wilson interval on
# every cross-validation row. prunebench marks misses inside_ci=false.
go run ./cmd/experiments -only prunebench -bench crc32 -runs 2000 -q \
    -json >"$tmpdir/prune.json"
if grep -q '"inside_ci": false' "$tmpdir/prune.json"; then
    echo "pruned SDC estimate outside the full campaign's 95% Wilson interval:" >&2
    cat "$tmpdir/prune.json" >&2
    exit 1
fi

# Static-masking gate (DESIGN.md §15): the pruned+masked estimate must
# also land inside the full campaign's 95% Wilson interval, and the
# dynamic probe of statically proven-masked bits must find every sample
# benign (anything else is a soundness bug in internal/bitmask).
go run ./cmd/experiments -only maskbench -bench crc32 -runs 2000 -q \
    -json >"$tmpdir/mask.json"
if grep -q '"inside_ci": false' "$tmpdir/mask.json"; then
    echo "pruned+masked SDC estimate outside the full campaign's 95% Wilson interval:" >&2
    cat "$tmpdir/mask.json" >&2
    exit 1
fi
if ! grep -q '"agreement": 1' "$tmpdir/mask.json" || \
    grep -q '"agreement": 0' "$tmpdir/mask.json"; then
    echo "static masking verdicts disagree with dynamic injection:" >&2
    cat "$tmpdir/mask.json" >&2
    exit 1
fi

# Compositional-sectioning gate (DESIGN.md §16): after a one-function
# edit, the composed per-section SDC estimate must land inside the
# edited program's full-campaign 95% Wilson interval on every row,
# re-execute only dirty sections, and cut injections >= 5x on the rows
# where sections are finer than the edit (crc32/asm is the documented
# single-function control at ~1x). Seed 7 is the pinned evaluation seed
# (EXPERIMENTS.md A4).
go run ./cmd/experiments -only sectionbench -runs 2000 -seed 7 -q \
    -json >"$tmpdir/section.json"
if grep -q '"inside_ci": false' "$tmpdir/section.json"; then
    echo "composed sectioned SDC estimate outside the full campaign's 95% Wilson interval:" >&2
    cat "$tmpdir/section.json" >&2
    exit 1
fi
if grep -q '"only_dirty": false' "$tmpdir/section.json"; then
    echo "sectioned re-analysis re-executed an unchanged section:" >&2
    cat "$tmpdir/section.json" >&2
    exit 1
fi
big=$(grep -o '"reduction": [0-9.]*' "$tmpdir/section.json" |
    awk '$2 >= 5 {n++} END {print n+0}')
if [ "$big" -lt 3 ]; then
    echo "expected >=5x injection reduction on at least 3 of 4 sectionbench rows:" >&2
    cat "$tmpdir/section.json" >&2
    exit 1
fi

# Telemetry smoke (DESIGN.md §12): a real study run must emit the run
# report and the span tree with the pinned metric families and the
# study → pipeline stage → campaign batch → engine run span hierarchy.
go run ./cmd/experiments -only results -bench crc32 -runs 40 -samples 120 -q \
    -metrics "$tmpdir/metrics.json" -trace "$tmpdir/trace.json"
for key in engine_runs_total campaign_runs_total pipeline_stage_misses_total \
    campaign_batch_seconds engine_slow_fallback_total; do
    grep -q "$key" "$tmpdir/metrics.json"
done
for span in '"study"' 'pipeline.campaign' 'campaign.batch' 'engine.run'; do
    grep -q "$span" "$tmpdir/trace.json"
done

# Sharded-campaign exactness gate (DESIGN.md §13): the same campaign
# executed unsharded and sharded across 1, 2, and 4 worker processes
# must print bit-identical statistics — any divergence in shard
# partitioning, the worker protocol, or the merge shows up as a diff.
go build -o "$tmpdir/flowery" ./cmd/flowery
"$tmpdir/flowery" inject -runs 400 -seed 7 crc32 >"$tmpdir/unsharded.out"
for procs in 1 2 4; do
    "$tmpdir/flowery" inject -runs 400 -seed 7 -shards 8 \
        -shard-workers "$procs" crc32 >"$tmpdir/sharded.out"
    diff "$tmpdir/unsharded.out" "$tmpdir/sharded.out"
done

# Telemetry overhead guard: the no-op sink must cost <= 2% of simbench
# engine throughput (disabled and enabled runs agree within tolerance;
# the test retries to ride out scheduler noise).
TELEMETRY_OVERHEAD_GUARD=1 go test ./internal/experiment \
    -run TestTelemetryOverheadGuard -count=1

# Formatting gate: the tree must be gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Daemon round-trip gate (DESIGN.md §14): a campaign submitted to
# floweryd must stream statistics bit-identical to the batch
# `flowery inject` of the same spec; a repeated submission must be
# served from the persistent artifact store (observable as a
# store_hits_total increment on /metrics) and still print identically;
# and the daemon-side record log must byte-match the batch one.
go build -o "$tmpdir/floweryd" ./cmd/floweryd
"$tmpdir/floweryd" -addr 127.0.0.1:0 -addr-file "$tmpdir/addr" \
    -store "$tmpdir/cas" 2>"$tmpdir/floweryd.log" &
daemon_pid=$!
trap 'kill "$daemon_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT
for _ in $(seq 50); do
    [ -s "$tmpdir/addr" ] && break
    sleep 0.1
done
daemon_url="http://$(cat "$tmpdir/addr")"

"$tmpdir/flowery" inject -runs 60 -samples 120 -seed 11 \
    -reclog "$tmpdir/batch.reclog" crc32 >"$tmpdir/batch.out"
"$tmpdir/flowery" remote -addr "$daemon_url" inject -runs 60 -samples 120 -seed 11 \
    -reclog "$tmpdir/remote.reclog" crc32 >"$tmpdir/remote.out"
diff "$tmpdir/batch.out" "$tmpdir/remote.out"
cmp "$tmpdir/batch.reclog" "$tmpdir/remote.reclog"

# Repeat without records: answered from the store, identical stats.
"$tmpdir/flowery" remote -addr "$daemon_url" inject -runs 60 -samples 120 -seed 11 \
    crc32 >"$tmpdir/repeat.out"
diff "$tmpdir/batch.out" "$tmpdir/repeat.out"
"$tmpdir/flowery" remote -addr "$daemon_url" metrics >"$tmpdir/daemon.prom"
grep -q '^store_hits_total [1-9]' "$tmpdir/daemon.prom"
grep -q '^service_jobs_done_total 2' "$tmpdir/daemon.prom"

# Sectioned incremental gate (DESIGN.md §16): submit a sectioned
# campaign on a crc32 IR file, edit one constant outside the loops,
# resubmit, and require that only the edited section re-executes while
# both loop summaries are recalled from the daemon's persistent store
# across processes — observable on the resubmitted job's own metrics
# page as pipeline_store_hits_total.
"$tmpdir/flowery" ir crc32 >"$tmpdir/prog.ir"
"$tmpdir/flowery" remote -addr "$daemon_url" inject -sections -layer ir \
    -runs 2000 -seed 7 "$tmpdir/prog.ir" \
    >"$tmpdir/sec_cold.out" 2>"$tmpdir/sec_cold.err"
grep -q 'sectioned: sections=3 executed=3 recalled=0' "$tmpdir/sec_cold.out"
sed 's/store i64 4294967295, %3/store i64 4294967294, %3/' \
    "$tmpdir/prog.ir" >"$tmpdir/prog_edited.ir"
if cmp -s "$tmpdir/prog.ir" "$tmpdir/prog_edited.ir"; then
    echo "fixture edit did not change the IR" >&2
    exit 1
fi
"$tmpdir/flowery" remote -addr "$daemon_url" inject -sections -layer ir \
    -runs 2000 -seed 7 "$tmpdir/prog_edited.ir" \
    >"$tmpdir/sec_warm.out" 2>"$tmpdir/sec_warm.err"
grep -q 'sectioned: sections=3 executed=1 recalled=2' "$tmpdir/sec_warm.out"
job=$(awk '/^remote: job / {print $3; exit}' "$tmpdir/sec_warm.err")
"$tmpdir/flowery" remote -addr "$daemon_url" metrics "$job" >"$tmpdir/secjob.prom"
grep -q '^pipeline_store_hits_total [1-9]' "$tmpdir/secjob.prom"
kill "$daemon_pid"

# Remote socket worker gate (DESIGN.md §17): the same campaign farmed
# over TCP to two socket workers must print statistics bit-identical to
# the unsharded run, and the shard-streamed record log must byte-match
# the single-writer one.
"$tmpdir/flowery" shard-worker -listen 127.0.0.1:0 \
    -addr-file "$tmpdir/w1.addr" 2>/dev/null &
w1_pid=$!
"$tmpdir/flowery" shard-worker -listen 127.0.0.1:0 \
    -addr-file "$tmpdir/w2.addr" 2>/dev/null &
w2_pid=$!
w3_pid=
trap 'kill "$daemon_pid" "$w1_pid" "$w2_pid" $w3_pid 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
for _ in $(seq 50); do
    [ -s "$tmpdir/w1.addr" ] && [ -s "$tmpdir/w2.addr" ] && break
    sleep 0.1
done
"$tmpdir/flowery" inject -runs 400 -seed 7 \
    -reclog "$tmpdir/local.frl" crc32 >/dev/null
"$tmpdir/flowery" inject -runs 400 -seed 7 -shards 8 \
    -remote-workers "$(cat "$tmpdir/w1.addr"),$(cat "$tmpdir/w2.addr")" \
    -reclog "$tmpdir/socket.frl" crc32 >"$tmpdir/socket.out"
diff "$tmpdir/unsharded.out" "$tmpdir/socket.out"
cmp "$tmpdir/local.frl" "$tmpdir/socket.frl"

# Chaos smoke (DESIGN.md §17): one of the two workers dies abruptly
# after its first result — no quit, no teardown, like a crashed host.
# The campaign must still print bit-identical statistics, with the lost
# shard visibly re-dealt in telemetry. Redialing the dead worker is
# disabled so the smoke exercises re-deal, not resurrection.
FLOWERY_SHARD_CHAOS_EXIT_AFTER=1 "$tmpdir/flowery" shard-worker \
    -listen 127.0.0.1:0 -addr-file "$tmpdir/w3.addr" 2>/dev/null &
w3_pid=$!
for _ in $(seq 50); do
    [ -s "$tmpdir/w3.addr" ] && break
    sleep 0.1
done
"$tmpdir/flowery" -metrics "$tmpdir/chaos.prom" inject -runs 400 -seed 7 \
    -shards 8 -remote-redials -1 \
    -remote-workers "$(cat "$tmpdir/w1.addr"),$(cat "$tmpdir/w3.addr")" \
    crc32 >"$tmpdir/chaos.out"
diff "$tmpdir/unsharded.out" "$tmpdir/chaos.out"
grep -q '^shard_shards_redealt_total [1-9]' "$tmpdir/chaos.prom"
