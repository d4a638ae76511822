#!/usr/bin/env bash
# Tier-1 CI gate: build + full ctest —
#   1. plain RelWithDebInfo over the whole suite,
#   2. ThreadSanitizer (COSMICDANCE_SANITIZE=thread) over the parallel exec
#      suite, which must be race-free for the deterministic-ordering
#      contract to mean anything; the batch SGP4 suite rides along so a
#      shared propagator driven from many threads (the pure-kernel contract,
#      DESIGN.md §16) is under the same lens, and so do the snapshot suites,
#      whose every cache path runs a background save that reads the parsed
#      inputs while the pipeline builds from them (DESIGN.md §14, §18),
#   3. ASan+UBSan (COSMICDANCE_SANITIZE=address) over the ingestion suites,
#      driving the malformed-record corpus through both parse policies so
#      buffer overreads in the fixed-column parsers surface here, and the
#      delta-snapshot differential suite so the incremental path's tail
#      parse and base rewrite run under the same lens, the daemon's
#      framing and JSON request reader, where outside input enters it,
#      the fig10 ECDF selection, whose histogram and gather passes index
#      by computed bucket, the fig10 samples buffer and the storm cell
#      scan, whose workers write computed slices, and the percentile
#      selection.
#   4. observability smoke: the CLI with --metrics/--trace on the bundled
#      dataset (every output file byte-identical and work counters
#      bit-identical at --threads 1 vs 8, per DESIGN.md §9/§11, the
#      output files, report and storms tables byte-identical to the
#      digests committed in tests/golden/smoke_outputs.sha256 (with the
#      simulated smoke catalog and two gen-dst presets' bytes), the
#      figure export timed as its own analyze.export phase and the
#      pipeline's destruction as analyze.teardown, and each
#      satellite's track built once per run; a cached run writes the same
#      .cdsnap at --threads 1 and 8, whose bytes are pinned by digest too,
#      and an exact hit on it the same files) plus the
#      micro_pipeline, micro_ingest and
#      micro_sgp4 telemetry passes, leaving build/BENCH_pipeline.json,
#      build/BENCH_ingest.json and build/BENCH_sgp4.json behind as CI
#      artifacts.  The ingest record also gates the TLE text writer: the
#      same bytes at any thread count and >= 0.75M records/s; and the
#      constellation simulator: the same catalog and failures at any
#      thread count and >= 0.65M records/s.  The sgp4 record must clear a positions/s floor with zero
#      non-kOk statuses and a bit-identical threads=1 vs threads=N grid
#      (the batch determinism contract, DESIGN.md §16).  The ingest record
#      must show two cache hits (ingest.cache_hit == 2: the warm pass and
#      the pass after a Dst-only append) and an append-aware delta hit
#      that parsed only a small tail
#      (ingest.delta_hit == 1, delta_tail_fraction < 5%), clear the
#      absolute ingestion floors (cold parse >= 2M records/s — 2x the
#      1.02M records/s baseline — and an exact-hit warm start, timed as
#      from_files runs it: the recorded state, the input fingerprint, then
#      the snapshot load, >= 3x the cold rate; each the best of three reps
#      spread over the telemetry pass, one where the reps always ran, one
#      after the simulator leg and one at its end, so neither one noisy
#      sample nor a slow start of the process can flake the gate; every
#      rep is in the record's "reps"), and
#      tools/bench_compare.py diffs throughput against the previous
#      run's record when one exists — warn-only inside a 40% band, a
#      hard failure (exit 1) past it for the ingest and sgp4 records,
#      where a collapse that deep cannot be scheduler noise.  The pass then boots
#      cosmicdanced against the same dataset (DESIGN.md §15), sends one of
#      every query op plus a snapshot-swap reload, shuts it down cleanly,
#      and asserts the serve.requests / serve.errors / serve.reloads
#      counters and one serve.precompute phase per epoch in the daemon's
#      --metrics-out dump; micro_serve hammers a loopback daemon with
#      concurrent clients across a mid-load reload (clients keep sending
#      until it is answered) and must leave build/BENCH_serve.json behind
#      showing >= 1000 q/s, zero serve errors, responses served by the
#      reloaded epoch, and a p99 latency within 40x the p50.
#   5. static analysis: cdlint v2 (the project-invariant lint, DESIGN.md
#      §12/§17) runs its parallel two-phase scan (--threads 4) and must
#      report zero non-baselined findings against the committed baseline,
#      which itself must stay empty of entries; the seeded corpus must keep
#      producing the golden findings so no rule -- per-file or cross-file
#      (R9-R14) -- can silently die, and micro_cdlint leaves
#      build/BENCH_cdlint.json behind tracking the gate's own files/s and
#      rule-evaluations/s with a warn-only trend diff against the previous
#      run.  clang-tidy and shellcheck run when installed and are skipped
#      (not failed) when not.
#
# Usage: tools/run_tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
JOBS="${1:-$(nproc)}"

echo "== pass 1: plain build + full test suite =="
cmake -B build -S . -DCOSMICDANCE_SANITIZE=
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== pass 2: ThreadSanitizer build + parallel suite =="
cmake -B build-tsan -S . -DCOSMICDANCE_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
      --target parallel_differential_test serve_test sgp4_batch_test \
               snapshot_test delta_snapshot_test stats_test
# TSan halts with a non-zero exit on any race; no suppressions are used.
# The serve suites put the daemon's snapshot swap and its connection
# workers (DESIGN.md §15) under the same lens: concurrent readers + reloads
# must be race-free.  The ParallelDifferentialEcdfPoints suite does the
# same for the fig10 ECDF selection's chunked histogram and gather passes.
# Sgp4ThreadSafety drives one shared deep-space propagator from many
# threads — the regression gate for the old mutable resonance-memo race.
# The Snapshot and DeltaSnapshot suites run every cache path (cold, exact
# hit, append, stale) with the background save sharing the parsed inputs,
# and the SnapshotHash suite hashes the fingerprint's 4 MiB windows (and a
# recorded prefix's last partial window) over the pool at 1-8 threads.
# CleanTrackDigest builds and cleans every track at 1-8 threads.
# ParallelDifferentialCatalogColumns has pool workers write disjoint row
# ranges of one catalog's columns: the snapshot decode, and the text
# parse's merge into spare rows, into the free rows behind the laid-out
# ones (a launch-day tail, read from the moved satellites' old rows at
# once) and into a new layout, at 1-8 threads.  ParallelDifferentialStagedParse has
# them parse shards into their rows of one staging block, at 1-8 shards
# and 1, 4 and 8 threads, before the stitch writes a record that straddles
# a shard edge into another shard's rows.  ParallelDifferentialFig10Samples
# has them write each satellite's kept and removed altitudes into its two
# slices of one buffer, and ParallelDifferential.StormScanEqualsTwoBruteForceLoops
# runs the one storm cell scan at 1-8 threads.  PercentileSelection
# (stats_test) rides along: the selection the track build runs on every
# worker.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'ParallelDifferential|CleanTrackDigest|ParallelForStress|ThreadPoolTest|Serve|Sgp4ThreadSafety|BatchPropagator|Snapshot|PercentileSelection'

echo "== pass 3: ASan+UBSan build + malformed-record ingestion suite =="
cmake -B build-asan -S . -DCOSMICDANCE_SANITIZE=address
cmake --build build-asan -j "$JOBS" \
      --target ingestion_fuzz_test diag_test io_test tle_test tle2_test \
               timeutil_test spaceweather_test snapshot_test \
               delta_snapshot_test serve_test parallel_differential_test \
               stats_test
# The fuzz suite feeds truncated / corrupted fixed-column records through
# every ingestion path; ASan+UBSan turns any column overread into a failure.
# snapshot_test drives the corrupted-snapshot failure matrix (truncation,
# bit flips, stale hashes) through the state read and the binary decoder
# under the same lens, and its SnapshotHash suite slices the input into
# the fingerprint's windows over the pool, the prefix's partial window
# included;
# delta_snapshot_test does the same for the append-aware incremental path
# (forged appends, unsafe prefix boundaries, the append/edit fuzz loop).
# The ServeWire and ServeJson suites feed the daemon's frame reader and
# request parser oversized prefixes, garbage and a million nested '['.
# ParallelDifferentialEcdfPoints drives the fig10 ECDF selection's
# histogram and gather indexing over ties, infinities, signed zeros, NaN
# and samples of one value; the ParallelDifferentialTleText suite in the
# same binary matches 'Tle' and rides along.  ParallelDifferentialCatalogColumns
# feeds the snapshot decoder column blocks with a designator index past its
# table, epochs out of order and counts past the section, and copies column rows
# from satellites' old ranges into the free rows or a new layout, and up
# within one range when an out-of-order record is merged in place.
# ParallelDifferentialStagedParse indexes the
# staging block by computed row (each shard's range, the carried record's
# extra row) and copies staged runs into the columns.
# ParallelDifferentialFig10Samples indexes the fig10 buffer by computed
# offset, and feeds it forged tracks that must throw before a write past
# their satellite's slice; StormScan runs the fused storm cell scan, and
# PercentileSelection the selection's rank arithmetic over ties,
# infinities and one or two elements.
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R 'IngestionFuzz|Diag|ParseLog|DataQualityReport|Csv|Tle|DateTime|Wdc|Snapshot|ServeWire|ServeJson|ParallelDifferentialEcdfPoints|ParallelDifferentialCatalogColumns|ParallelDifferentialStagedParse|ParallelDifferentialFig10Samples|StormScan|PercentileSelection'

echo "== pass 4: observability smoke (CLI metrics/trace + bench telemetry) =="
CLI=build/tools/cosmicdance
SMOKE=build/obs-smoke
rm -rf "$SMOKE"
mkdir -p "$SMOKE"
# data/sample ships only the Dst series; generate the matching catalog.
"$CLI" simulate --dst data/sample/dst.wdc --scenario paper \
       --per-batch 1 --cadence 120 --out "$SMOKE/catalog.tle"
"$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --out-dir "$SMOKE/out1" --threads 1 \
       --metrics "$SMOKE/metrics_t1.json" --trace "$SMOKE/trace_t1.json"
"$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --out-dir "$SMOKE/out8" --threads 8 \
       --metrics "$SMOKE/metrics_t8.json"
# The determinism contract on the outputs themselves: the same files, each
# byte-identical at --threads 1 and 8.
[ "$(ls "$SMOKE/out1")" = "$(ls "$SMOKE/out8")" ]
for out in "$SMOKE"/out1/*; do
  cmp "$out" "$SMOKE/out8/$(basename "$out")"
done
# Byte-identity across commits: the generators' bytes (the simulated
# catalog above, and gen-dst's paper preset and the historical preset,
# the one that turns the solar-cycle modulation on), out1's files,
# report's stdout and markdown, the storms table at the default and a
# -100 nT threshold, and the .cdsnap the cached runs below write must
# match the digests committed in tests/golden/smoke_outputs.sha256 (stdout
# lines that name an output path are left out).  An intended output
# change updates that file and says why in CHANGES.md; a format change
# updates the .cdsnap's digest together with its version.
DIGESTS="$PWD/tests/golden/smoke_outputs.sha256"
"$CLI" gen-dst --preset paper --out "$SMOKE/gen_dst_paper.wdc"
"$CLI" gen-dst --preset historical --out "$SMOKE/gen_dst_historical.wdc"
"$CLI" report --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       > "$SMOKE/report.raw"
"$CLI" report --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --markdown "$SMOKE/report.md" > "$SMOKE/report_md.raw"
"$CLI" storms --dst data/sample/dst.wdc > "$SMOKE/storms.raw"
"$CLI" storms --dst data/sample/dst.wdc --threshold -100 \
       > "$SMOKE/storms_threshold.raw"
for name in report storms storms_threshold; do
  awk -v path="$SMOKE" 'index($0, path) == 0' "$SMOKE/$name.raw" \
      > "$SMOKE/$name.stdout"
done
# The snapshot writer streams its sections a wave at a time, and a wave's
# size follows the worker count; the file's bytes must not.  A cold cached
# run at --threads 1 and at 8 writes the same .cdsnap, checked with the
# digests under a fixed name (its own hashes the input path), and an exact
# hit on it writes out1's files.
for threads in 1 8; do
  "$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
         --out-dir "$SMOKE/cached$threads" --threads "$threads" \
         --cache-dir "$SMOKE/cache$threads"
done
cmp "$SMOKE"/cache1/*.cdsnap "$SMOKE"/cache8/*.cdsnap
cp "$SMOKE"/cache1/*.cdsnap "$SMOKE/cached.cdsnap"
[ "$(cd "$SMOKE/out1" && find . -type f | sed 's#^\./#out1/#' | LC_ALL=C sort)" = \
  "$(awk '$2 ~ /^out1\// {print $2}' "$DIGESTS" | LC_ALL=C sort)" ]
if ! (cd "$SMOKE" && sha256sum --check --quiet "$DIGESTS"); then
  echo "smoke outputs differ from tests/golden/smoke_outputs.sha256" >&2
  exit 1
fi
"$CLI" analyze --dst data/sample/dst.wdc --tles "$SMOKE/catalog.tle" \
       --out-dir "$SMOKE/hit8" --threads 8 --cache-dir "$SMOKE/cache8" \
       --metrics "$SMOKE/metrics_hit.json"
[ "$(ls "$SMOKE/out1")" = "$(ls "$SMOKE/hit8")" ]
for out in "$SMOKE"/out1/*; do
  cmp "$out" "$SMOKE/hit8/$(basename "$out")"
done
# Bench telemetry artifacts (benchmark suites themselves skipped via the
# nothing-matches filter; the instrumented passes still run).  The ingest
# record from the previous tier-1 run is kept as the comparison baseline.
build/bench/micro_pipeline --benchmark_filter='^$' \
       --bench-out build/BENCH_pipeline.json --threads 0
if [ -f build/BENCH_ingest.json ]; then
  cp build/BENCH_ingest.json build/BENCH_ingest.prev.json
fi
build/bench/micro_ingest --benchmark_filter='^$' \
       --bench-out build/BENCH_ingest.json --threads 0
# Trend diff against the previous run's record (first run on a fresh
# build dir has no baseline, so there is nothing to compare).  Drops
# inside the 40% band print WARN lines; anything past it is a real cliff
# and fails the gate.
if [ -f build/BENCH_ingest.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_ingest.prev.json \
          build/BENCH_ingest.json --fail-under=40
fi
# Batch SGP4 telemetry: the synthetic mixed fleet across the 60-day grid,
# once at full parallelism and once serially, with the grids compared
# bit-for-bit inside the bench (throughput.threads_identical).
if [ -f build/BENCH_sgp4.json ]; then
  cp build/BENCH_sgp4.json build/BENCH_sgp4.prev.json
fi
build/bench/micro_sgp4 --benchmark_filter='^$' \
       --bench-out build/BENCH_sgp4.json --threads 0
if [ -f build/BENCH_sgp4.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_sgp4.prev.json \
          build/BENCH_sgp4.json --fail-under=40
fi
# Serving daemon smoke (DESIGN.md §15): boot on an ephemeral port against
# the smoke dataset, send one of every query op plus a reload (which swaps
# the snapshot while the daemon serves), then a clean shutdown.  The
# daemon's exit status and its --metrics-out counter dump are both gated.
DAEMON=build/tools/cosmicdanced
rm -f "$SMOKE/port.txt"
"$DAEMON" --listen 127.0.0.1:0 --dst data/sample/dst.wdc \
          --tles "$SMOKE/catalog.tle" --cache-dir "$SMOKE/serve-cache" \
          --port-file "$SMOKE/port.txt" \
          --metrics-out "$SMOKE/daemon_metrics.json" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  [ -s "$SMOKE/port.txt" ] && break
  sleep 0.1
done
if [ ! -s "$SMOKE/port.txt" ]; then
  echo "cosmicdanced never wrote its port file" >&2
  kill "$DAEMON_PID" 2>/dev/null || true
  exit 1
fi
for op in ping stats sat_series storm_summary envelope_cdf propagate \
          decay_summary quality_report reload metrics; do
  "$DAEMON" query --port-file "$SMOKE/port.txt" \
            --json "{\"op\":\"$op\"}" > "$SMOKE/serve_$op.json"
done
"$DAEMON" query --port-file "$SMOKE/port.txt" \
          --json '{"op":"shutdown"}' > /dev/null
wait "$DAEMON_PID"
# Serving load generator: concurrent clients with the real query mix and a
# snapshot swap mid-load; exits non-zero on any error or torn epoch and
# leaves build/BENCH_serve.json behind as the CI artifact.
build/bench/micro_serve --clients 8 --requests 500 --threads 0 \
       --bench-out build/BENCH_serve.json
python3 - "$SMOKE" <<'EOF'
import json, sys
smoke = sys.argv[1]
m1 = json.load(open(f"{smoke}/metrics_t1.json"))
m8 = json.load(open(f"{smoke}/metrics_t8.json"))
for report in (m1, m8):
    for key in ("counters", "scheduling", "gauges", "phases"):
        assert key in report, f"metrics JSON missing {key!r}"
assert m1["counters"], "no work counters recorded"
assert m1["counters"] == m8["counters"], (
    "work counters differ between --threads 1 and 8: "
    f"{m1['counters']} vs {m8['counters']}")
# The figure export (ECDF builds and CSV writes) is a phase of its own, so
# a run's time after the pipeline build is attributed.
assert "analyze.export" in m1["phases"], (
    f"analyze.export phase missing: {sorted(m1['phases'])}")
# So is the pipeline's destruction after it: no part of the run's end falls
# outside every phase.
assert "analyze.teardown" in m1["phases"], (
    f"analyze.teardown phase missing: {sorted(m1['phases'])}")
# Each satellite's track is built once per run, cleaning included: nothing
# after the pipeline build builds another (Fig 10(a) is the cleaned tracks'
# altitudes plus those of the rows cleaning removed, analysis.fig10_samples).
built = m1["counters"].get("track.built")
assert built == (m1["counters"].get("clean.tracks_kept", 0) +
                 m1["counters"].get("clean.tracks_dropped", 0)), (
    f"track.built={built} is not one track per satellite: "
    f"{ {k: v for k, v in m1['counters'].items() if k.startswith(('track.', 'clean.'))} }")
# Fig 10's two samples come from one buffer, and Fig 5(b)/(c) from one scan
# of the storm cells: neither the per-figure altitude pass nor the second
# cell scan runs.
assert "analysis.fig10_samples" in m1["phases"], (
    f"analysis.fig10_samples phase missing: {sorted(m1['phases'])}")
for gone in ("analysis.all_altitudes", "correlator.drag_scan"):
    assert gone not in m1["phases"], (
        f"{gone} ran in analyze: {sorted(m1['phases'])}")
# The rerun over the cache the --threads 8 run wrote was an exact hit.
hit = json.load(open(f"{smoke}/metrics_hit.json"))["counters"]
assert hit.get("ingest.cache_hit") == 1 and "snapshot.written" not in hit, (
    "the rerun over the cached smoke catalog was not an exact hit: "
    f"{ {k: v for k, v in hit.items() if k.startswith(('ingest.', 'snapshot.'))} }")
trace = json.load(open(f"{smoke}/trace_t1.json"))
assert trace["traceEvents"], "empty trace"
assert any(e.get("ph") == "X" for e in trace["traceEvents"]), \
    "trace has no complete events"
bench = json.load(open("build/BENCH_pipeline.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in bench, f"bench record missing {key!r}"
assert bench["metrics"]["phases"], "bench record has no phase timings"
ingest = json.load(open("build/BENCH_ingest.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in ingest, f"ingest bench record missing {key!r}"
# The telemetry pass runs cold -> warm -> append -> delta-warm -> Dst-append
# against a fresh cache dir; the warm run must actually hit the snapshot
# (DESIGN.md §13), the delta-warm run must extend it by parsing only the
# appended tail (DESIGN.md §14) or the incremental path is silently dead,
# and the run after a Dst-only append must hit the TLE snapshot again (it
# caches the TLE parse alone).  The cold and delta-warm runs each write one
# base; the two hits write nothing.
counters = ingest["metrics"]["counters"]
assert counters.get("ingest.cache_hit") == 2, (
    "warm or Dst-append ingest pass did not hit the snapshot cache: "
    f"{ {k: v for k, v in counters.items() if k.startswith(('ingest.', 'snapshot.'))} }")
assert counters.get("ingest.delta_hit") == 1, (
    "delta-warm ingest pass did not take the append fast path: "
    f"{ {k: v for k, v in counters.items() if k.startswith(('ingest.', 'snapshot.'))} }")
assert counters.get("snapshot.written") == 2, (
    "expected one base from the cold pass and one from the delta-warm pass, "
    f"got snapshot.written={counters.get('snapshot.written')}")
tail_fraction = ingest["throughput"]["delta_tail_fraction"]
assert 0.0 < tail_fraction < 0.05, (
    f"delta-warm pass reparsed {tail_fraction:.1%} of the inputs; "
    "the incremental path must touch well under 5%")
# Absolute ingestion throughput floors (both rates are the best of three
# reps inside micro_ingest, spread over its telemetry pass, so neither a
# single noisy sample nor a slow start of the process can trip them; the
# record's "reps" holds each).  The cold floor is 2x the PR 9 record on
# this machine (~1.02M records/s); the warm floor is the cache's contract:
# an exact-hit warm start — the recorded state, the fingerprint that
# proves the input unchanged, then the snapshot load, everything such a
# run pays before it holds its datasets — must beat reparsing the text by
# at least 3x.
cold_rate = ingest["throughput"]["tle_records_per_s"]
warm_rate = ingest["throughput"].get("warm_start_records_per_s", 0.0)
assert cold_rate >= 2.0e6, (
    f"cold TLE parse at {cold_rate:,.0f} records/s is below the 2M floor "
    "(2x the PR 9 baseline)")
assert warm_rate >= 3.0 * cold_rate, (
    f"exact-hit warm start at {warm_rate:,.0f} records/s is under 3x the "
    f"cold parse rate ({cold_rate:,.0f}), or was not an exact hit; the "
    "snapshot decode or the input fingerprint has regressed")
# The TLE text writer (DESIGN.md §19): the same bytes at every thread
# count, and a floor of 0.75M records/s (min-of-reps), 3x the snprintf
# formatter it replaced (about 0.25M/s) and below the new one's serial
# rate (about 1.1-1.2M/s), so it holds on a 1-CPU box too.
format_rate = ingest["throughput"].get("tle_format_records_per_s", 0.0)
assert ingest["throughput"].get("format_threads_identical") == 1, (
    "TleCatalog::to_text differs between the run's thread count and the "
    "serial pass")
assert format_rate >= 0.75e6, (
    f"TLE text formatting at {format_rate:,.0f} records/s is below the "
    "0.75M floor")
# The constellation simulator (DESIGN.md §20): the same catalog and
# failures at every thread count, and a floor of 0.65M records/s
# (min-of-reps), above the hour-major loop it replaced (0.45-0.58M/s
# serially) and below the per-satellite loop's serial rate (0.83-0.97M/s),
# so it holds on a 1-CPU box too.
simulate_rate = ingest["throughput"].get("simulate_records_per_s", 0.0)
assert ingest["throughput"].get("simulate_threads_identical") == 1, (
    "ConstellationSimulator::run differs between the run's thread count "
    "and the serial run")
assert simulate_rate >= 0.65e6, (
    f"constellation simulation at {simulate_rate:,.0f} records/s is below "
    "the 0.65M floor")
# Batch SGP4 record (DESIGN.md §16): every fleet x grid cell must have
# propagated cleanly, the parallel and serial grids must be bit-identical,
# and the engine must clear the positions/s floor (set ~20x below the
# measured rate so only a real regression trips it).
sgp4 = json.load(open("build/BENCH_sgp4.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in sgp4, f"sgp4 bench record missing {key!r}"
sgp4_tp = sgp4["throughput"]
assert sgp4_tp.get("status_errors") == 0, (
    f"batch propagation hit non-kOk statuses: {sgp4_tp}")
assert sgp4_tp.get("threads_identical") == 1, (
    "parallel and serial batch grids differ; the determinism contract "
    f"is broken: {sgp4_tp}")
positions_per_s = sgp4_tp.get("positions_per_s", 0)
assert positions_per_s >= 100000, (
    f"batch SGP4 throughput {positions_per_s:.0f} positions/s is below "
    "the 100k floor")
# Daemon smoke: every query answered from a whole epoch, and the counter
# dump written at shutdown matches what was sent (8 query ops + shutdown,
# zero errors, exactly one snapshot swap).
ops = ("ping", "stats", "sat_series", "storm_summary", "envelope_cdf",
       "propagate", "decay_summary", "quality_report", "reload", "metrics")
for op in ops:
    response = json.load(open(f"{smoke}/serve_{op}.json"))
    assert response.get("ok") is True, f"{op} failed: {response}"
    if "epoch" in response:
        assert response["epoch"] == response["epoch_end"], (
            f"{op} response tore across epochs: {response['epoch']} vs "
            f"{response['epoch_end']}")
reload_epoch = json.load(open(f"{smoke}/serve_reload.json"))["epoch"]
assert reload_epoch == 2, f"reload did not swap the epoch: {reload_epoch}"
propagate = json.load(open(f"{smoke}/serve_propagate.json"))
assert propagate["samples"] == len(propagate["altitude_km"]), propagate
assert propagate["valid_samples"] >= 1, (
    f"propagate returned no valid altitude samples: {propagate}")
decay = json.load(open(f"{smoke}/serve_decay_summary.json"))
assert decay["satellites"] >= 1 and decay["fastest_decaying"], (
    f"decay_summary ranked no satellites: {decay}")
daemon_metrics = json.load(open(f"{smoke}/daemon_metrics.json"))
serve = daemon_metrics["counters"]
assert serve.get("serve.requests") == len(ops) + 1, (
    f"daemon counted {serve.get('serve.requests')} requests, "
    f"expected {len(ops) + 1}")
assert serve.get("serve.errors", 0) == 0, (
    f"daemon recorded serve errors: {serve}")
assert serve.get("serve.reloads") == 1, (
    f"daemon recorded {serve.get('serve.reloads')} reloads, expected 1")
# Each epoch's derived results are built once, before it is published:
# one serve.precompute for the start-up and one per reload, none per query.
precompute = daemon_metrics["phases"].get("serve.precompute", {}).get("calls")
assert precompute == 1 + serve["serve.reloads"], (
    f"serve.precompute ran {precompute} times for "
    f"{1 + serve['serve.reloads']} epochs")
# Serving bench record: the swap-under-load gate (micro_serve already
# failed hard on errors / torn epochs) plus the throughput floor.
record = json.load(open("build/BENCH_serve.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in record, f"serve bench record missing {key!r}"
qps = record["throughput"]["queries_per_s"]
assert qps >= 1000, f"serving throughput {qps:.0f} q/s is below 1000 q/s"
serve_bench = record["metrics"]["counters"]
assert serve_bench.get("serve.errors", 0) == 0, (
    f"micro_serve recorded serve errors: {serve_bench}")
assert serve_bench.get("serve.reloads") == 1, (
    "micro_serve did not swap the snapshot mid-load")
assert record["throughput"].get("responses_after_swap", 0) > 0, (
    "no micro_serve response came from the reloaded epoch; the swap did "
    "not land under load")
# The tail as a ratio to the median, so the gate does not depend on the
# host's speed (measured 9-20x on 1, 2 and 4 CPUs).
p50_us = record["throughput"]["latency_p50_us"]
p99_us = record["throughput"]["latency_p99_us"]
assert p99_us <= 40 * p50_us, (
    f"micro_serve p99 {p99_us:.0f} us is over 40x its p50 {p50_us:.0f} us")
print(f"observability smoke OK: {len(m1['counters'])} work counters "
      f"bit-identical across thread counts, "
      f"{len(trace['traceEvents'])} trace events, "
      f"bench throughput keys: {sorted(bench['throughput'])}, "
      f"ingest cache_hit={counters['ingest.cache_hit']}, "
      f"delta_hit={counters['ingest.delta_hit']} "
      f"(tail fraction {tail_fraction:.2%}), "
      f"cold {cold_rate:,.0f} rec/s, warm {warm_rate:,.0f} rec/s "
      f"({warm_rate / cold_rate:.1f}x), format {format_rate:,.0f} rec/s, "
      f"simulate {simulate_rate:,.0f} rec/s; "
      f"sgp4 batch {positions_per_s:.0f} positions/s, 0 status errors, "
      f"threads identical; "
      f"daemon smoke OK: {serve['serve.requests']} requests, "
      f"0 errors, 1 reload; micro_serve {qps:.0f} q/s, "
      f"p99/p50 {p99_us / p50_us:.1f}x")
EOF

echo "== pass 5: static analysis (cdlint; clang-tidy/shellcheck if installed) =="
# cdlint v2: the parallel two-phase scan (lex -> project index -> per-file
# + cross-file rules R9-R14) must be clean against the committed baseline,
# and the self-test corpus must still produce the golden findings --
# otherwise a lint rule has silently stopped firing.
cmake --build build -j "$JOBS" --target cdlint cdlint_test micro_cdlint
build/tools/cdlint/cdlint --root . --baseline tools/cdlint/baseline.txt \
      --threads 4
# The baseline must stay EMPTY: grandfathering is for bootstrap only, new
# findings get fixed or carry an inline `// cdlint: allow(<rule>) <reason>`.
if grep -Ev '^[[:space:]]*(#|$)' tools/cdlint/baseline.txt; then
  echo "cdlint baseline has grown entries; fix or allow() the findings" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -R 'CdlintTest'
# Lint-gate cost telemetry: in-process scan_tree() over the real tree; any
# finding fails the bench, and the record's throughput keys feed the same
# warn-only trend diff as the other micro benches.
if [ -f build/BENCH_cdlint.json ]; then
  cp build/BENCH_cdlint.json build/BENCH_cdlint.prev.json
fi
build/bench/micro_cdlint --root . --threads 4 \
      --bench-out build/BENCH_cdlint.json
if [ -f build/BENCH_cdlint.prev.json ]; then
  python3 tools/bench_compare.py build/BENCH_cdlint.prev.json \
          build/BENCH_cdlint.json
fi
python3 - <<'EOF'
import json
record = json.load(open("build/BENCH_cdlint.json"))
for key in ("bench", "threads", "dataset", "throughput", "metrics"):
    assert key in record, f"cdlint bench record missing {key!r}"
throughput = record["throughput"]
for key in ("files_per_s", "rules_per_s"):
    assert throughput.get(key, 0) > 0, (
        f"cdlint bench record has no {key}: {throughput}")
counters = record["metrics"]["counters"]
assert counters.get("cdlint.files", 0) > 0, "cdlint bench scanned no files"
assert counters.get("cdlint.findings", 0) == 0, (
    f"cdlint bench saw findings on the tree: {counters}")
print(f"cdlint gate OK: {counters['cdlint.files']} files at "
      f"{throughput['files_per_s']:.0f} files/s "
      f"({throughput['rules_per_s']:.0f} rule evals/s)")
EOF
tools/run_clang_tidy.sh build "$JOBS"
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck tools/run_tier1.sh tools/run_clang_tidy.sh
else
  echo "shellcheck not installed; skipping shell lint"
fi

echo "== tier-1 gate: OK =="
