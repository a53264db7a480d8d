#!/bin/sh
# Tour of the fastband command line interface.
#
# select and ise-study emit a JSON run report to stdout or to --out,
# timed by the phase fields of the selections they made; ise-study takes
# --seed.  density dumps the estimate as CSV.  Exit codes: 0 success,
# 2 input error, 3 numerical failure.
set -e

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Make a small CSV sample to select on.
python3 - "$workdir/sample.csv" <<'EOF'
import sys
import numpy as np
rng = np.random.default_rng(2024)
x = rng.standard_normal((400, 2)) @ np.linalg.cholesky(np.array([[1.0, 0.6], [0.6, 1.0]])).T
np.savetxt(sys.argv[1], x, delimiter=",")
EOF

echo "== select: full bandwidth matrix from a CSV sample =="
fastband select "$workdir/sample.csv" --mode fft-L --grid 150

echo
echo "== select: diagonal constraint, report written to a file =="
fastband select "$workdir/sample.csv" --constraint diagonal \
    --out "$workdir/report.json"
python3 -c "import json; r = json.load(open('$workdir/report.json')); print(r['results']['h'])"

echo
echo "== ise-study: selection quality across grid resolutions =="
fastband ise-study --model bimodal --n 128 --grids 20,80 --reps 3 --seed 5

echo
echo "== select: where the time went, from the report's phase timings =="
fastband select "$workdir/sample.csv" --r 2 --grid 60 --out "$workdir/timed.json"
python3 - "$workdir/timed.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))["timings"]
for key in ("dedup_ms", "binning_ms", "precompute_ms", "decode_ms", "score_ms", "total_ms"):
    print(f"{key:>14}: {t[key]:8.2f}")
per_eval = (t["decode_ms"] + t["score_ms"]) / t["objective_evals"]
print(f"{t['objective_evals']} evaluations at r = 2, {per_eval:.3f} ms each")
EOF

echo
echo "== density: dump the estimate on a grid as CSV =="
fastband density "$workdir/sample.csv" --select --grid 40 \
    --out "$workdir/density.csv"
head -3 "$workdir/density.csv"
echo "rows: $(wc -l < "$workdir/density.csv")"

echo
echo "== exit codes: missing file gives 2, bad bandwidth gives 3 =="
fastband select "$workdir/missing.csv" 2>/dev/null || echo "missing file -> $?"
fastband density "$workdir/sample.csv" --bandwidth "1,2;2,1" --grid 30 \
    2>/dev/null || echo "indefinite bandwidth -> $?"
