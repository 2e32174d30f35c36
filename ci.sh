#!/usr/bin/env bash
# Offline-safe CI gate: format, lint, build, test.
#
# The workspace has zero external dependencies, so every step below runs
# without network access. This script is the single source of truth; the
# GitHub Actions workflow just calls it.
set -euo pipefail
cd "$(dirname "$0")"

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
# builds run a short prefix), then the ledger's exact counts twice over.
echo "==> crypto known answers + differential (release), ledger determinism"
cargo test --release -q -p watchmen-crypto --test fast_path
benchmark/run.sh --selfcheck

echo "==> chrome trace smoke (deathmatch, 8 players, 200 frames)"
TRACE_OUT=/tmp/watchmen-trace.json
rm -f "$TRACE_OUT"
WATCHMEN_TRACE="chrome:$TRACE_OUT" \
    cargo run --release --example deathmatch 8 200 > /dev/null
python3 - "$TRACE_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
spans = [e for e in events if e.get("ph") == "X" and "dur" in e]
assert events, "chrome trace has no events"
assert spans, "chrome trace has no complete (ph=X) spans"
print(f"trace OK: {len(events)} events, {len(spans)} complete spans")
EOF

echo "==> faulted soak (16 secured nodes, burst loss + duplication + proxy crash)"
SOAK_OUT=/tmp/watchmen-soak.txt
WATCHMEN_FAULTS="loss=0.05,dup=0.01,reorder=0.25,reorder_ms=40,seed=9" \
    cargo run --release --example deathmatch 8 200 > "$SOAK_OUT"
python3 - "$SOAK_OUT" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"fault summary: (.*)", text)
assert m, "no fault summary line in deathmatch output"
kv = {k: int(v) for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["retransmits"] > 0, f"burst loss never forced a retransmission: {kv}"
assert kv["abandoned"] == 0, f"control messages abandoned: {kv}"
assert kv["pending_handoffs"] == 0, f"unrecovered handoff chains: {kv}"
assert kv["fallbacks"] >= 1, f"crashed proxy never triggered a fallback: {kv}"
assert kv["severe_false_verdicts"] == 0, f"false cheat verdicts under faults: {kv}"
assert kv["dup"] > 0 and kv["dropped"] > 0, f"fault plan never engaged: {kv}"
print(f"soak OK: {m.group(1)}")
EOF

echo "==> churn soak (16 veterans + 4 mid-game joins, leaves, evictions under 5% burst loss)"
CHURN_OUT=/tmp/watchmen-churn.txt
WATCHMEN_CHURN=soak \
    cargo run --release --example deathmatch 8 200 > "$CHURN_OUT"
python3 - "$CHURN_OUT" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"churn summary: (.*)", text)
assert m, "no churn summary line in deathmatch output"
kv = {k: int(v) for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["joins"] >= 4, f"mid-game joins never applied: {kv}"
assert kv["leaves"] >= 2, f"graceful leaves never applied: {kv}"
assert kv["evictions"] >= 2, f"crash evictions never applied: {kv}"
assert kv["joiners_converged"] == kv["joins"], f"a joiner missed its bootstrap window: {kv}"
assert kv["roster_agreement"] == 1, f"rosters diverged at a renewal boundary: {kv}"
assert kv["false_verdicts"] == 0, f"churn produced false cheat verdicts: {kv}"
assert kv["bad_signatures"] == 0, f"churn traffic scored as signature failures: {kv}"
print(f"churn OK: {m.group(1)}")
EOF

echo "==> fleet soak + live observability plane (256 matches x 16 bots, endpoint scraped mid-run)"
FLEET_OUT=/tmp/watchmen-fleet.txt
FLEET_BENCH_DIR=/tmp/watchmen-fleet-bench
FLEET_AUDIT=/tmp/watchmen-fleet-audit.jsonl
rm -rf "$FLEET_BENCH_DIR" && mkdir -p "$FLEET_BENCH_DIR"
rm -f "$FLEET_OUT" "$FLEET_AUDIT"
# Background run with the metrics endpoint up and a post-run hold window,
# so the scrape below is guaranteed a live server whether it lands
# mid-soak or just after.
WATCHMEN_FLEET="${WATCHMEN_FLEET:-matches=256,players=16,frames=160,workers=4,cheat_every=8,audit=1}" \
WATCHMEN_BENCH_OUT="$FLEET_BENCH_DIR" \
WATCHMEN_METRICS_ADDR=127.0.0.1:0 \
WATCHMEN_METRICS_HOLD_MS=60000 \
WATCHMEN_AUDIT="$FLEET_AUDIT" \
    cargo run --release --example fleet_soak > "$FLEET_OUT" &
FLEET_PID=$!
python3 - "$FLEET_OUT" <<'EOF'
import json, os, re, sys, time, urllib.request
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

resp = urllib.request.urlopen(f"http://{addr}/metrics", timeout=5)
ctype = resp.headers.get("Content-Type", "")
assert ctype.startswith("text/plain; version=0.0.4"), f"bad content type {ctype!r}"
body = resp.read().decode()

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

jbody = json.load(urllib.request.urlopen(f"http://{addr}/metrics.json", timeout=5))
assert isinstance(jbody, dict) and jbody, "metrics.json is not a non-empty object"

print(f"scrape OK: {samples} samples, {len(typed)} typed families, live at {addr}")
EOF
# Everything is flushed before the hold window, so wait for the bench
# record then cut the hold short.
for _ in $(seq 1 600); do
    grep -q "BENCH_detection.json" "$FLEET_OUT" && break
    sleep 0.1
done
kill "$FLEET_PID" 2>/dev/null || true
wait "$FLEET_PID" 2>/dev/null || true
python3 - "$FLEET_OUT" "$FLEET_BENCH_DIR/BENCH_fleet.json" \
    "$FLEET_BENCH_DIR/BENCH_detection.json" "$FLEET_AUDIT" <<'EOF'
import json, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"fleet summary: (.*)", text)
assert m, "no fleet summary line in fleet_soak output"
kv = {k: int(v) for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["completed"] == kv["matches"], f"matches lost: {kv}"
assert kv["panicked"] == 0, f"matches panicked: {kv}"
assert kv["false_verdicts"] == 0, f"fleet produced false cheat verdicts: {kv}"
assert kv["cheater_matches"] > 0, f"cheat injection never engaged: {kv}"
assert kv["detected_matches"] == kv["cheater_matches"], f"a cheater went undetected: {kv}"
assert kv["workers"] >= 4, f"fleet ran under-parallel: {kv}"
bench = json.load(open(sys.argv[2]))
assert bench["matches_per_sec"] > 0, f"bench record has no throughput: {bench}"
assert bench["ticks_per_sec"] > 0, f"bench record has no tick rate: {bench}"
assert bench["worst_shard_tick_p99_ms"] > 0, f"bench record has no shard p99: {bench}"
assert len(bench["shard_tick_p99_ms"]) == bench["workers"], f"missing shard p99s: {bench}"

# Detection-quality SLO: zero false verdicts, every injected cheater
# detected, time-to-detection p99 inside the frame budget.
s = re.search(r"detection slo: (.*)", text)
assert s, "no detection slo line in fleet_soak output"
slo = {k: v for k, v in
       (p.split("=") for p in s.group(1).split() if not p.startswith("check:"))}
assert slo["false_verdicts"] == "0", f"false verdicts on the audit stream: {slo}"
assert slo["detected"] == slo["injected"] != "0", f"missed cheaters: {slo}"
assert slo["ok"] == "1", f"detection slo failed: {slo}"

det = json.load(open(sys.argv[3]))
assert det["injected"] > 0 and det["detected"] == det["injected"], f"bad join: {det}"
assert det["false_verdicts"] == 0, f"false verdicts in bench record: {det}"
assert det["slo_ok"] == 1, f"slo_ok not set: {det}"
assert det["ttd_p99_frames"] <= det["ttd_budget_frames"], f"ttd blew the budget: {det}"
assert det["position_tp"] > 0, f"position check never scored a true positive: {det}"
assert det["plane_overhead_pct"] < 5.0, f"observability plane too expensive: {det}"

audit = [json.loads(l) for l in open(sys.argv[4])]
assert audit, "audit stream is empty"
assert all(set(r) >= {"match", "frame", "node", "kind", "check", "trace"} for r in audit)
kinds = {r["kind"] for r in audit}
assert "verdict" in kinds and "rating_transition" in kinds, f"kinds seen: {kinds}"

print(f"fleet OK: {m.group(1)}")
print(f"slo OK: {s.group(1)}")
print(f"bench OK: {bench['matches_per_sec']:.1f} matches/sec, "
      f"ttd p99 {det['ttd_p99_frames']:.0f} frames, "
      f"plane overhead {det['plane_overhead_pct']:.2f}%, "
      f"{len(audit)} audit records")
EOF

echo "==> live cluster smoke (6 OS processes over loopback UDP, scripted speed-hacker)"
LIVE_OUT=/tmp/watchmen-live.txt
cargo run --release --example live_cluster > "$LIVE_OUT"
python3 - "$LIVE_OUT" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"live summary: (.*)", text)
assert m, "no live summary line in live_cluster output"
kv = {k: int(v) for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["completed"] == kv["players"], f"a node process died or hung: {kv}"
assert kv["false_verdicts"] == 0, f"live run framed an honest player: {kv}"
assert kv["detected"] == 1 and kv["severe"] > 0, f"speed-hacker went undetected: {kv}"
assert kv["heartbeats"] > 0, f"transport heartbeats never flowed: {kv}"
assert kv["malformed"] == 0 and kv["truncated"] == 0, f"wire corruption on loopback: {kv}"
print(f"live OK: {m.group(1)}")
EOF

echo "==> coordinated-adversary campaigns (collusion, sybil-flood, eclipse at fixed seeds)"
CAMPAIGN_OUT=/tmp/watchmen-campaign.txt
WATCHMEN_CAMPAIGN="runs=3,seed=2013,workers=2" \
WATCHMEN_BENCH_OUT=. \
    cargo run --release --example campaign_run > "$CAMPAIGN_OUT"
python3 - "$CAMPAIGN_OUT" BENCH_campaign.json <<'EOF'
import json, re, sys
text = open(sys.argv[1]).read()
lines = re.findall(r"^campaign (collusion|sybil-flood|eclipse): (.*)$", text, re.M)
names = [name for name, _ in lines]
assert names == ["collusion", "sybil-flood", "eclipse"], f"campaign lines: {names}"
for name, rest in lines:
    kv = {k: v for k, v in (p.split("=") for p in rest.split())}
    assert kv["ok"] == "true", f"{name} failed its SLO: {kv}"
    assert kv["false_verdicts"] == "0", f"{name} framed an honest actor: {kv}"
    assert int(kv["adversaries"]) > 0, f"{name} injected no adversaries: {kv}"
    assert kv["detected"] == kv["adversaries"], f"{name} missed adversaries: {kv}"
    assert int(kv["ttd_p99"]) <= int(kv["budget"]), f"{name} blew its ttd budget: {kv}"

bench = json.load(open(sys.argv[2]))
assert bench["ok"] == 1 and bench["panics"] == 0, f"campaign bench not ok: {bench}"
for name in ("collusion", "sybil_flood", "eclipse"):
    assert bench[f"{name}_detected"] == bench[f"{name}_adversaries"] > 0, f"{name}: {bench}"
    assert bench[f"{name}_false_verdicts"] == 0, f"{name}: {bench}"
    assert bench[f"{name}_ttd_p99_frames"] <= bench[f"{name}_ttd_budget_frames"], f"{name}: {bench}"
print("campaign OK: " + "; ".join(f"{n} {r}" for n, r in lines))
EOF

echo "==> store crash loop (8 kill/abort cycles against the durable reputation store)"
CRASH_OUT=/tmp/watchmen-crashloop.txt
WATCHMEN_STORE_DIR=/tmp/watchmen-crashloop-store \
WATCHMEN_CRASHLOOP="cycles=8,ops=3000,seed=2013" \
    cargo run --release --example store_crashloop > "$CRASH_OUT" 2>/dev/null
python3 - "$CRASH_OUT" <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"crashloop summary: (.*)", text)
assert m, "no crashloop summary line in store_crashloop output"
kv = {k: v for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["ok"] == "true", f"crash loop failed: {kv}"
assert kv["divergences"] == "0", f"recovery diverged from the reference replay: {kv}"
assert int(kv["sigkills"]) + int(kv["aborts"]) > 0, f"no crash was ever injected: {kv}"
assert kv["ops"] == "3000", f"the final fault-free cycle never finished the stream: {kv}"
assert int(kv["acked_bans"]) > 0, f"no ban was ever acknowledged: {kv}"
print(f"crashloop OK: {m.group(1)}")
EOF

echo "==> reputation population soak (2000 matches, repeat offenders banned across matches)"
POP_OUT=/tmp/watchmen-population.txt
POP_STORE=/tmp/watchmen-population-store
rm -rf "$POP_STORE"
WATCHMEN_STORE_DIR="$POP_STORE" \
WATCHMEN_BENCH_OUT=. \
    cargo run --release --example population_run > "$POP_OUT"
python3 - "$POP_OUT" BENCH_reputation.json <<'EOF'
import json, re, sys
text = open(sys.argv[1]).read()
m = re.search(r"population summary: (.*)", text)
assert m, "no population summary line in population_run output"
kv = {k: v for k, v in (p.split("=") for p in m.group(1).split())}
assert kv["ok"] == "true", f"population SLO failed: {kv}"
assert kv["false_bans"] == "0", f"an honest identity was banned: {kv}"
assert kv["banned"] == kv["cheaters"] != "0", f"a repeat cheater escaped the ban: {kv}"
assert int(kv["refused"]) > 0, f"bans never blocked later matchmaking: {kv}"
assert int(kv["commits"]) > 0 and int(kv["compactions"]) > 0, f"store never cycled: {kv}"

bench = json.load(open(sys.argv[2]))
assert bench["ok"] == 1, f"reputation bench not ok: {bench}"
assert bench["false_bans"] == 0, f"false bans in bench record: {bench}"
assert bench["cheaters_banned"] == bench["cheaters"] > 0, f"missed cheaters: {bench}"
assert bench["ttb_p99_matches"] <= 20, f"time-to-ban p99 too slow: {bench}"
assert bench["refused_admissions"] > 0, f"no cross-match refusals recorded: {bench}"
print(f"population OK: {m.group(1)}")
EOF

echo "CI OK"
