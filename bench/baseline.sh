#!/usr/bin/env bash
# Records one baseline set under bench/results/<name>: the four workloads at
# seed 1, the traced run with the extras, the trace files (the mesh traces
# cut to their first 500 spans: whole, they are megabytes), and the spread of
# every end-to-end metric over ten seeds.
#
#   bash bench/baseline.sh set1
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
rel="bench/results/${1:?usage: baseline.sh <set name>}"
out="$root/$rel"
seconds=$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")
mkdir -p "$out/traces"
for w in sim-paper sim-scale1024 mesh-kv mesh-contend; do
	bash "$root/bench/run.sh" --workload "$w" --seed 1 --seconds "$seconds" --trace 0 >"$out/$w.txt"
done
bash "$root/bench/run.sh" --workload sim-paper --seed 1 --seconds "$seconds" --trace 1 --extras \
	--out "$rel/traces" >"$out/traced.txt"
for f in "$out"/traces/mesh-*.jsonl; do
	head -n 500 "$f" >"$f.cut" && mv "$f.cut" "$f"
done
python3 "$root/bench/spread.py" >"$out/spread.txt"
