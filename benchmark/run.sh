#!/usr/bin/env bash
# The Watchmen perf ledger, one command.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--traced]
#       Builds the benchmark, then runs every workload (or just W) in a
#       fresh process each: once untraced for the end-to-end metrics, once
#       traced for the per-layer metrics (--traced: the traced run only).
#       Prints every metric by name with its unit, writes
#       benchmark/out/results.json, and exits non-zero if an operation
#       failed, a measurement gate tripped, or a run died.
#   benchmark/run.sh --selfcheck [--seed N]
#       Asserts determinism and that BENCHMARK.json matches the binary.
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, the way the benchmark driver calls it: the last line of
#       stdout is the result as one JSON object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# cargo honours CARGO_TARGET_DIR by itself; without it the package builds
# into its own target directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/watchmen-benchmark"

seed=2013 seconds=10 only="" passes="0 1" passthrough=0
args=("$@")
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    --traced) passes="1"; shift ;;
    --trace | --selfcheck | --vet) passthrough=1; shift ;;
    *) shift ;;
  esac
done
if [ "$passthrough" = 1 ]; then
  exec "$bin" "${args[@]}"
fi

workloads="${only:-match16 match48 hostile16 live16 fleet1w store256k}"
out=benchmark/out
mkdir -p "$out"
results="$out/results.json"
status=0
echo "{" > "$results"
first_workload=1
for w in $workloads; do
  [ "$first_workload" = 1 ] || echo "  ," >> "$results"
  first_workload=0
  echo "  \"$w\": {" >> "$results"
  first_pass=1
  for trace in $passes; do
    mode=$([ "$trace" = 1 ] && echo traced || echo untraced)
    part="$out/$w.$mode.part"
    rm -f "$part"
    # The table is for the reader; the driver's JSON line is dropped here.
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | grep -v '^{' || status=1
    if [ -f "$part" ]; then
      [ "$first_pass" = 1 ] || echo "    ," >> "$results"
      first_pass=0
      cat "$part" >> "$results"
      grep -q '"failed": 0, "gates_ok": true' "$part" || status=1
    else
      status=1
    fi
  done
  echo "  }" >> "$results"
done
echo "}" >> "$results"
echo "wrote $results"
if [ "$status" != 0 ]; then
  echo "FAILED: an operation failed, a measurement gate tripped or a run died (see above)" >&2
fi
exit "$status"
