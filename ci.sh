#!/usr/bin/env bash
# Offline-safe CI: format, lint, build, test, then every driver once.
#
# The workspace has zero external dependencies, so every step below runs
# without network access. This script is the single source of truth; the
# GitHub Actions workflow just calls it.
#
# It is a list of commands. A gate is a Rust assertion or a driver's own
# exit code (DESIGN.md §7): every example below exits non-zero when its
# SLO fails, and nothing here parses a summary line. The two Python
# blocks check what only an external client can — that the chrome trace
# loads as JSON, and that a live /metrics scrape is valid exposition.
set -euo pipefail
cd "$(dirname "$0")"

# Every `WATCHMEN_*` environment variable is a cost (ROADMAP): the set
# the code names, doc comments included, must be exactly this list. The
# library crates read the environment only in the metrics endpoint, the
# report recorder and the benches' quick switch; a child process gets
# its inputs as arguments; and the last `key=value` grammar stays gone.
echo "==> knob list"
knobs="WATCHMEN_AUDIT WATCHMEN_BENCH_OUT WATCHMEN_LIVE_DIE WATCHMEN_METRICS_ADDR \
WATCHMEN_METRICS_HOLD_MS WATCHMEN_QUICK WATCHMEN_STORE_DIR WATCHMEN_TRACE"
named=$(grep -rhoE 'WATCHMEN_[A-Z_]+' crates src examples | LC_ALL=C sort -u | xargs)
[ "$named" = "$knobs" ] ||
    { echo "the code names other knobs than ci.sh lists: $named" >&2; exit 1; }
readers=$(grep -rlF 'std::env::var' crates/*/src | LC_ALL=C sort | xargs)
[ "$readers" = "crates/bench/src/lib.rs crates/telemetry/src/report.rs crates/telemetry/src/serve.rs" ] ||
    { echo "a library crate reads the environment elsewhere: $readers" >&2; exit 1; }
[ ! -e crates/telemetry/src/spec.rs ] ||
    { echo "the key=value spec grammar is back: crates/telemetry/src/spec.rs" >&2; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

# The signature fast path must never move a byte: known-answer vectors from
# the original implementation plus the full-size differential test (debug
# builds run a short prefix), and the crate's unit tests optimised too, so
# the scalar-vs-hardware SHA-256 agreement test runs on the code the
# benchmark runs; then the core's tests optimised too, so the proxy-draw
# digests and the wire fuzz check the code the ledger runs; then the
# ledger's exact counts twice over.
echo "==> crypto + core tests, known answers + differential + draw digests (release), ledger determinism"
cargo test --release -q -p watchmen-crypto
cargo test --release -q -p watchmen-core
benchmark/run.sh --selfcheck

# The paper figures that run the shipped node must keep building and
# finishing; their shape gates are Rust assertions (DESIGN.md §7), so the
# output is discarded. Figs. 4 and 6 and Table I are graded on the node
# replay too, so the hand-driven models, the detectors no node runs and
# the checks only they ran must not come back, and the rate check is
# called only by the node.
echo "==> paper-figure benches on real nodes (quick mode)"
WATCHMEN_QUICK=1 cargo bench -p watchmen-bench --bench fig4_info_disclosure \
    --bench fig5_witnesses --bench fig6_detection --bench fig7_update_age \
    --bench tab1_cheat_matrix --bench scalability_bandwidth \
    --bench ablation_proxy_period --bench ablation_interest_size > /dev/null
model=$(grep -nE 'clients_of|ProxySchedule|frame_stride' crates/sim/src/disclosure.rs || true)
[ -z "$model" ] || { echo "the Fig. 4 proxy-schedule model is back: $model" >&2; exit 1; }
model=$(grep -rnE 'check_guidance|check_is_subscription|observe_honest_guidance|bogus_velocity|guidance_deviation' crates src examples tests || true)
[ -z "$model" ] || { echo "the Fig. 6 detection model is back: $model" >&2; exit 1; }
model=$(grep -rnE 'SummaryCorroborator|ScheduleBiasDetector|CheatInjector|run_campaign|CampaignKind' crates src examples tests || true)
[ -z "$model" ] || { echo "the Table I campaign models are back: $model" >&2; exit 1; }
for gone in crates/math/src/poly.rs crates/sim/src/campaign.rs crates/core/src/collusion.rs \
    crates/core/src/schedule_guard.rs crates/game/src/replay.rs; do
    [ ! -e "$gone" ] || { echo "a model no node runs is back: $gone" >&2; exit 1; }
done
rate=$(grep -rlF 'check_rate(' crates src examples tests | sort | tr '\n' ' ' || true)
[ "$rate" = "crates/core/src/node/duty.rs crates/core/src/verify.rs " ] ||
    { echo "check_rate called outside the node: $rate" >&2; exit 1; }

# One run covers the trace smoke and both scripted soaks (control plane
# under burst loss + duplication + reordering + a proxy crash; churn with
# joins, leaves and evictions): deathmatch exits non-zero if either fails.
# A misspelt WATCHMEN_TRACE exits 2 before any work instead of quietly
# turning tracing off.
echo "==> deathmatch (8 players, 200 frames): chrome trace, faulted soak, churn soak"
trace_rc=0
trace_err=$(WATCHMEN_TRACE=chrom:/tmp/x cargo run -q --release --example deathmatch 8 200 2>&1 >/dev/null) ||
    trace_rc=$?
[ "$trace_rc" = 2 ] && grep -q WATCHMEN_TRACE <<<"$trace_err" ||
    { echo "WATCHMEN_TRACE=chrom:/tmp/x exited $trace_rc, not 2 naming it: $trace_err" >&2; exit 1; }
TRACE_OUT=/tmp/watchmen-trace.json
rm -f "$TRACE_OUT"
WATCHMEN_TRACE="chrome:$TRACE_OUT" \
    cargo run --release --example deathmatch 8 200 > /dev/null
python3 - "$TRACE_OUT" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X" and "dur" in e]
assert events, "chrome trace has no events"
assert spans, "chrome trace has no complete (ph=X) spans"
print(f"trace OK: {len(events)} events, {len(spans)} complete spans")
PY

# Every BENCH_*.json a stage writes carries this run's timings: they go to
# a scratch directory, never over the tracked copies.
BENCH_DIR=/tmp/watchmen-ci-bench
rm -rf "$BENCH_DIR" && mkdir -p "$BENCH_DIR"

echo "==> fleet soak + live observability plane (256 matches x 16 bots, endpoint scraped mid-run)"
FLEET_OUT=/tmp/watchmen-fleet.txt
rm -f "$FLEET_OUT"
# Background run with the metrics endpoint up and a short post-run hold,
# so the scrape below finds a live server whether it lands mid-soak or
# just after. The soak gates itself; `wait` collects its exit code.
WATCHMEN_BENCH_OUT="$BENCH_DIR" \
WATCHMEN_METRICS_ADDR=127.0.0.1:0 \
WATCHMEN_METRICS_HOLD_MS=2000 \
WATCHMEN_AUDIT=/tmp/watchmen-fleet-audit.jsonl \
    cargo run --release --example fleet_soak > "$FLEET_OUT" &
FLEET_PID=$!
trap 'kill "$FLEET_PID" 2>/dev/null || true' EXIT
python3 - "$FLEET_OUT" <<'PY'
import os, re, sys, time, urllib.request
# Wait for the endpoint to announce itself, then scrape it live.
addr = None
for _ in range(600):
    text = open(sys.argv[1]).read() if os.path.exists(sys.argv[1]) else ""
    m = re.search(r"metrics endpoint listening on (\S+)", text)
    if m:
        addr = m.group(1)
        break
    time.sleep(0.1)
assert addr, "fleet_soak never announced its metrics endpoint"

health = urllib.request.urlopen(f"http://{addr}/healthz", timeout=5).read().decode()
assert health.strip() == "ok", f"healthz said {health!r}"

# The first match builds its nodes in its first quantum: rescrape until
# their metrics show, for up to five seconds.
for _ in range(50):
    resp = urllib.request.urlopen(f"http://{addr}/metrics", timeout=5)
    ctype = resp.headers.get("Content-Type", "")
    assert ctype.startswith("text/plain; version=0.0.4"), f"bad content type {ctype!r}"
    body = resp.read().decode()
    if "\n# TYPE node_" in body:
        break
    time.sleep(0.1)

# Prometheus exposition conformance: every family has a TYPE line before
# its samples, sample lines parse, and no internal `_ms` names leak out
# (millisecond histograms must export as `_seconds`).
typed = set()
sample_re = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+\-]+|NaN)$')
samples = 0
for line in body.splitlines():
    if not line or line.startswith("# HELP"):
        continue
    if line.startswith("# TYPE"):
        parts = line.split()
        assert len(parts) == 4 and parts[3] in ("counter", "gauge", "histogram"), line
        typed.add(parts[2])
        continue
    m = sample_re.match(line)
    assert m, f"unparseable sample line: {line!r}"
    name = m.group(1)
    samples += 1
    base = re.sub(r"_(bucket|sum|count)$", "", name)
    assert base in typed or name in typed, f"sample before TYPE: {line!r}"
    assert not base.endswith("_ms") and "_ms_" not in name, f"raw ms name leaked: {name}"
assert samples > 0, "scrape returned no samples"
assert 'fleet_quanta_total{shard="0"}' in body, "per-shard rollup labels missing"
assert "fleet_matches{state=" in body, "match lifecycle gauges missing"
assert "_seconds_bucket{" in body, "no seconds-unit histograms in scrape"
assert any(t.startswith("node_") for t in typed), "the matches' node metrics are missing"

print(f"scrape OK: {samples} samples, {len(typed)} typed families, live at {addr}")
PY
wait "$FLEET_PID"
trap - EXIT
tail -n 4 "$FLEET_OUT"

# The live transport frames into reused buffers and counts through cached
# handles: run the net tests optimised too, so the frame fuzz, the socket
# classification and the counter-delta tests check the code the ledger's
# live16 and the cluster below run.
echo "==> net unit + frame-fuzz + counter tests (release)"
cargo test --release -q -p watchmen-net

echo "==> live cluster smoke (6 OS processes over loopback UDP, scripted speed-hacker)"
cargo run --release --example live_cluster | tail -n 1

# The die hook: node 3 exits with status 7 right after ADDR. The parent
# must abort at once, exit 1, and name the node and its status. A value
# that is not a player index exits 2, naming the variable, before any
# node starts.
echo "==> live cluster die hook (node 3 exits mid-rendezvous)"
die_rc=0
die_err=$(WATCHMEN_LIVE_DIE=3 cargo run -q --release --example live_cluster 2>&1 >/dev/null) ||
    die_rc=$?
[ "$die_rc" = 1 ] || { echo "die hook exited $die_rc, not 1: $die_err" >&2; exit 1; }
grep -E '^live cluster aborted: .*node 3 .*exit status: 7' <<<"$die_err" ||
    { echo "die hook abort does not name node 3 and its status: $die_err" >&2; exit 1; }
die_rc=0
die_err=$(WATCHMEN_LIVE_DIE=x cargo run -q --release --example live_cluster 2>&1 >/dev/null) ||
    die_rc=$?
[ "$die_rc" = 2 ] || { echo "WATCHMEN_LIVE_DIE=x exited $die_rc, not 2: $die_err" >&2; exit 1; }
grep -q WATCHMEN_LIVE_DIE <<<"$die_err" ||
    { echo "WATCHMEN_LIVE_DIE=x does not name the variable: $die_err" >&2; exit 1; }

# The store's checksum has two kernels and its formats are pinned by golden
# bytes: run its tests optimised too, so the CRC agreement tests and the
# columns-vs-map differential check the code the benchmark and the drivers
# below run. Then hold the docs to their claim: `unsafe` is said in exactly
# the two modules that call a `#[target_feature]` kernel after detection,
# and in the one test that counts allocations with a `#[global_allocator]`;
# every driver reports through `telemetry::report::Report` (only a match's
# pinned per-match line is hand-formatted); keep the node's components
# (clippy.toml bounds their functions), the codec's and the lobby's files
# small, and the lobby in its parts; keep one runner per result (Table I
# and Figs. 4, 5 and 6 only on the node replay, the Sybil flood only through
# the lobby's admission, bans only through the lobby); keep one liveness
# table (the node's `last_heard`) and at most six settable
# `WatchmenConfig` fields, the rest being protocol constants; and keep
# State deltas out of the codec — a delta needs a baseline every receiver
# holds, which IS subscribers that come and go every few dozen frames do
# not (DESIGN.md, "The wire").
echo "==> store unit + golden-bytes + recovery tests (release), unsafe audit"
cargo test --release -q -p watchmen-store
unsafe_in=$(grep -rlE 'unsafe[[:space:]]*(\{|fn|impl)' crates src examples tests | sort | tr '\n' ' ' || true)
[ "$unsafe_in" = "crates/crypto/src/sha256/sha_ni.rs crates/game/tests/trace_decode_alloc.rs crates/store/src/record/clmul.rs " ] ||
    { echo "unsafe outside the audited files: $unsafe_in" >&2; exit 1; }
formats=$(grep -rl 'BenchRecord\|fn summary_line' crates examples tests src | tr '\n' ' ' || true)
[ "$formats" = "crates/fleet/src/cell.rs " ] || { echo "a second report format: $formats" >&2; exit 1; }
long=$(wc -l crates/core/src/{node,msg,lobby}/*.rs | awk '$2 != "total" && $1 > 800 { print $2 }')
[ -z "$long" ] || { echo "node, codec or lobby files over 800 lines: $long" >&2; exit 1; }
[ ! -e crates/core/src/delta.rs ] || { echo "core::delta is back: crates/core/src/delta.rs" >&2; exit 1; }
[ ! -e crates/core/src/lobby.rs ] || { echo "the one-file lobby is back: crates/core/src/lobby.rs" >&2; exit 1; }
for gone in crates/fleet/src/campaign.rs crates/sim/src/witness.rs examples/cheat_hunt.rs; do
    [ ! -e "$gone" ] || { echo "a second runner is back: $gone" >&2; exit 1; }
done
[ ! -e crates/core/src/membership.rs ] ||
    { echo "a second liveness table is back: crates/core/src/membership.rs" >&2; exit 1; }
fields=$(awk '/^pub struct WatchmenConfig/,/^}/' crates/core/src/config.rs | grep -c '^    pub ' || true)
[ "$fields" -le 6 ] ||
    { echo "WatchmenConfig declares $fields pub fields; protocol constants are associated consts" >&2; exit 1; }

echo "==> store crash loop (8 kill/abort cycles against the durable reputation store)"
WATCHMEN_STORE_DIR=/tmp/watchmen-crashloop-store \
    cargo run --release --example store_crashloop 2>/dev/null | tail -n 1

# The soak plays real fleet matches, so its bans come from the nodes' own
# verdicts; the seeded detector model it replaced must not come back.
echo "==> reputation population soak (2000 real 8x160 fleet matches, repeat offenders banned across matches)"
model=$(grep -rnE 'honest_failed_permille|cheat_failed_permille|WATCHMEN_POPULATION' crates examples || true)
[ -z "$model" ] || { echo "the population detector model is back: $model" >&2; exit 1; }
POP_STORE=/tmp/watchmen-population-store
rm -rf "$POP_STORE"
WATCHMEN_STORE_DIR="$POP_STORE" \
WATCHMEN_BENCH_OUT="$BENCH_DIR" \
    cargo run --release --example population_run

echo "CI OK"
