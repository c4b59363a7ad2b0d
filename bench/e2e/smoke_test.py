"""Smoke test of the end-to-end benchmark (ctest bench_e2e_smoke).

Runs every workload of BENCHMARK.json with --smoke (untrained model, 2k
items, 0.3 s phases), traced, plus one untraced run, and asserts that each
run exits 0 with "correct": true, prints every declared metric as a
`name value unit` line, and puts exactly the declared metrics of its mode,
with their units, in the JSON summary on its last line.

    python3 smoke_test.py <bench_e2e binary> <BENCHMARK.json>
"""

import json
import subprocess
import sys
import tempfile


def run(binary, workload, trace):
    with tempfile.TemporaryDirectory(dir=".") as trace_dir:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "3", "--smoke",
             "--trace", "1" if trace else "0", "--trace_dir", trace_dir],
            capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout.splitlines()


def check(workload, lines, printed, reported):
    summary = json.loads(lines[-1])
    if summary["correct"] is not True or summary["attempted"] < 1:
        sys.exit(f"{workload}: bad summary {lines[-1]}")
    units = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3:
            units[fields[0]] = fields[2]
    for m in printed:
        if units.get(m["name"]) != m["unit"]:
            sys.exit(f"{workload}: no line '{m['name']} <value> {m['unit']}'")
    got = {name: v["unit"] for name, v in summary["metrics"].items()}
    want = {m["name"]: m["unit"] for m in reported}
    if got != want:
        sys.exit(f"{workload}: JSON metrics {sorted(got)} != {sorted(want)}")


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    for w in spec["workloads"]:
        check(w["name"], run(binary, w["name"], True), e2e + layer, layer)
    first = spec["workloads"][0]["name"]
    check(first, run(binary, first, False), e2e, e2e)
    print("bench_e2e smoke: ok")


if __name__ == "__main__":
    main()
