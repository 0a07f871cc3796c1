#!/usr/bin/env bash
# Runs two interleaved sets of N runs of each workload (seeds 1..N in each
# set, in the order A1 B1 A2 B2 ...), each for run_seconds from
# BENCHMARK.json, and compares the sets. Per workload and end-to-end
# metric it prints each set's median and quartiles, its spread (quartile
# distance over the median), and flags a pair whose medians differ by more
# than the metric's bound. Exits 1 if any pair is flagged or any run fails.
#
#   benchmark/repeat.sh N [WORKLOAD...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench="$(dirname "$here")/BENCHMARK.json"
n="${1:?usage: repeat.sh N [WORKLOAD...]}"
shift
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    workloads=(compile run serve-hot serve-fresh serve-shared)
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$n"); do
    for set in A B; do
        for w in "${workloads[@]}"; do
            bash "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" >"$out/$set.$w.$i.txt"
        done
    done
done
python3 - "$bench" "$out" "$n" "${workloads[@]}" <<'PY'
import json
import statistics
import sys

bench, out, n, workloads = json.load(open(sys.argv[1])), sys.argv[2], int(sys.argv[3]), sys.argv[4:]
flagged = 0
for w in workloads:
    runs = {
        s: [json.loads(open(f"{out}/{s}.{w}.{i}.txt").read().splitlines()[-1]) for i in range(1, n + 1)]
        for s in "AB"
    }
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    print(f"== {w}: {2 * n} runs, {failed} failed ops")
    flagged += failed > 0
    print(f"  {'metric':<12} {'A median':>12} {'A q1..q3':>23} {'spread':>7}"
          f" {'B median':>12} {'B q1..q3':>23} {'spread':>7} {'B/A-1':>7} {'bound':>6}")
    for m in bench["end_to_end"]:
        row = []
        for s in "AB":
            vals = [r["metrics"][m["name"]]["value"] for r in runs[s]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            row.append((statistics.median(vals), q1, q3, (q3 - q1) / med if med else 0.0))
        (ma, a1, a3, sa), (mb, b1, b3, sb) = row
        diff = mb / ma - 1 if ma else 0.0
        flag = abs(diff) > m["bound"]
        flagged += flag
        print(f"  {m['name']:<12} {ma:>12.5g} {a1:>11.5g}..{a3:<11.5g} {sa:>7.3f}"
              f" {mb:>12.5g} {b1:>11.5g}..{b3:<11.5g} {sb:>7.3f} {diff:>+7.3f} {m['bound']:>6}"
              f"{'  <-- medians differ by more than the bound' if flag else ''}")
sys.exit(1 if flagged else 0)
PY
