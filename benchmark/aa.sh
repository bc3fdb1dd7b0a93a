#!/usr/bin/env bash
# A/A check: two sets of runs of the same build must agree within the
# bounds BENCHMARK.json declares.
#
#   benchmark/aa.sh                 # 10 runs per set, every workload
#   RUNS=4 benchmark/aa.sh serve_hot stream_fresh
#
# Both sets run seeds 1..RUNS, so the two differ by the host alone, and
# they alternate (A B, B A, A B, ...) so that slow drift of the host lands
# on both. For every workload and end-to-end metric it prints each set's
# median and quartiles, its spread (interquartile range over median), the
# gap between the two medians (positive when B is worse) and the bound. A
# row passes when both spreads and the size of the gap, in either
# direction, stay inside the bound; for setup_s the gap alone decides,
# because a set-up runs once per process and so lands on one speed of the
# host, and the harness checks only its medians. The window's timings,
# which carry no bound, follow in the same form without a verdict. The table is also
# written to benchmark/out/aa.txt; paste it into the PR description.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${RUNS:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if [ "$#" -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c \
    'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/sisg-benchmark"

mkdir -p benchmark/out
results=benchmark/out/aa.jsonl
: > "$results"

one() { # set seed workload
  local line
  line="$("$bin" --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)"
  printf '{"set": "%s", "seed": %s, "workload": "%s", "result": %s, "record": %s}\n' \
    "$1" "$2" "$3" "$line" "$(cat "benchmark/out/$3-seed$2-trace0.json")" >> "$results"
}

for i in $(seq 1 "$runs"); do
  for w in "${workloads[@]}"; do
    if [ $((i % 2)) -eq 1 ]; then
      one A "$i" "$w"; one B "$i" "$w"
    else
      one B "$i" "$w"; one A "$i" "$w"
    fi
    echo "run $i/$runs $w done" >&2
  done
done

python3 - "$results" <<'EOF' | tee benchmark/out/aa.txt
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows)

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3

print(f"A/A: {len(rows)} runs, every output correct: {ok}")
header = (f"{'workload':17} {'metric':25} {'median A':>13} {'[q1 .. q3]':>27} {'spread':>7}"
          f" {'median B':>13} {'[q1 .. q3]':>27} {'spread':>7} {'gap':>7} {'bound':>6}  verdict")
print(header)
timings = ["ops_per_s", "ops_per_s_best_slice", "latency_p50_us",
           "latency_p50_us_best_slice", "latency_p90_us"]
unbounded = [m for m in spec["per_layer"] if m["name"] in timings]
for w in [w["name"] for w in spec["workloads"]]:
    for m in spec["end_to_end"] + unbounded:
        cell = {}
        for label in "AB":
            runs = [r for r in rows if r["workload"] == w and r["set"] == label]
            # The result line carries the bounded metrics; the rest is in
            # the run's record.
            values = [(r["result"]["metrics"] if "bound" in m else r["record"]["per_layer"])
                      [m["name"]]["value"] for r in runs]
            if values:
                cell[label] = quartiles(values)
        if len(cell) < 2:
            continue
        (a1, a2, a3), (b1, b2, b3) = cell["A"], cell["B"]
        spread_a, spread_b = (a3 - a1) / a2, (b3 - b1) / b2
        # How much worse the second median is than the first.
        gap = (b2 - a2) / a2 if m["better"] == "lower" else (a2 - b2) / a2
        if "bound" in m:
            bound = m["bound"]
            spread = max(spread_a, spread_b)
            checked = 0.0 if m["name"] == "setup_s" else spread
            verdict = "ok" if checked <= bound and abs(gap) <= bound else "MISS"
            if verdict == "ok" and spread > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            bound = f"{bound:6.0%}"
        else:
            bound, verdict = "     -", "no bound"
        print(f"{w:17} {m['name']:25} {a2:13.6g} [{a1:12.6g} ..{a3:12.6g}] {spread_a:7.2%}"
              f" {b2:13.6g} [{b1:12.6g} ..{b3:12.6g}] {spread_b:7.2%} {gap:+7.2%} {bound}  {verdict}")
EOF
