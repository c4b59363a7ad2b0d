#!/usr/bin/env bash
# Runs N untraced sets of every workload in BENCHMARK.json (set i uses seed
# FIRST_SEED + i; odd sets run the workloads in reverse order) and prints,
# per workload and metric, the median, the quartiles, the spread (quartile
# distance over median, as BENCHMARK.json bounds are checked) and the
# largest distance of any value from the median. Extra arguments go to
# run.sh, e.g. --inject_spin_us=embed:10.
#
#   bash bench/e2e/repeat.sh N [FIRST_SEED] [run.sh flags...]
set -euo pipefail

sets="${1:?usage: repeat.sh N [FIRST_SEED] [run.sh flags...]}"
first_seed="${2:-7}"
shift $(( $# < 2 ? $# : 2 ))

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
spec="$root/BENCHMARK.json"
# First line: run_seconds; then one workload name per line.
mapfile -t spec_lines < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"])
for w in spec["workloads"]: print(w["name"])' "$spec")
seconds="${spec_lines[0]}"
workloads=("${spec_lines[@]:1}")

results="$root/.bench_build/e2e/repeat.jsonl"
mkdir -p "$(dirname "$results")"
: > "$results"
for (( set = 0; set < sets; ++set )); do
  order=("${workloads[@]}")
  if (( set % 2 == 1 )); then
    mapfile -t order < <(printf '%s\n' "${workloads[@]}" | tac)
  fi
  seed=$(( first_seed + set ))
  for w in "${order[@]}"; do
    line="$(bash "$here/run.sh" --workload "$w" --seed "$seed" \
              --seconds "$seconds" --trace 0 "$@" | tail -n 1)"
    printf '{"workload": "%s", "seed": %d, "result": %s}\n' \
      "$w" "$seed" "$line" >> "$results"
    echo "set $set seed $seed $w done" >&2
  done
done

python3 - "$results" "$spec" <<'EOF'
import json, statistics, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
print(f"{'workload':14} {'metric':22} {'median':>12} {'q1':>12} {'q3':>12}"
      f" {'spread':>7} {'max_dev':>7} {'bound':>6}")
for w in spec["workloads"]:
    runs = [r["result"] for r in rows if r["workload"] == w["name"]]
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        dev = max(abs(v - med) for v in values) / med if med else 0.0
        print(f"{w['name']:14} {m['name']:22} {med:12.6g} {q1:12.6g}"
              f" {q3:12.6g} {spread:7.3f} {dev:7.3f} {m['bound']:6.3f}")
    failed = sum(r["failed"] for r in runs)
    wrong = sum(not r["correct"] for r in runs)
    print(f"{w['name']:14} runs {len(runs)}, failed requests {failed},"
          f" incorrect runs {wrong}")
EOF
