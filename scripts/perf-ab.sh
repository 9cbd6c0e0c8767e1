#!/usr/bin/env bash
# Same-runner A/B of the repository benchmark (perfbench/). Runs every
# workload in this checkout and in a copy of REV, PAIRS interleaved pairs
# each, on the same host, and compares the end-to-end metrics that
# BENCHMARK.json declares:
#
#   bash scripts/perf-ab.sh REV PAIRS WORKLOAD...
#   bash scripts/perf-ab.sh origin/main 5 regen-disk serve-miss
#
# Pair i runs seed i on both sides and alternates which side goes first,
# so drift on a shared host lands on both sides alike. Each run is
#   bash perfbench/run.sh --workload W --seed i --seconds <run_seconds> --trace 0
# and its last stdout line is the result JSON. The script first prints
# one line per workload, seed and side with that run's end-to-end
# metrics, so a claim can be re-checked from the log alone; then, per
# workload and metric, both sides' median and IQR, the change of the
# medians and how many pairs this checkout won. It exits non-zero when a
# run fails or reports incorrect output, or when a metric is worse than
# REV by more than its bound on a majority of pairs. BENCHMARK.json and
# perfbench/ are only read. REV's tree is extracted with git archive
# into a temporary directory that is removed on exit.
set -euo pipefail

if [ "$#" -lt 3 ]; then
	echo "usage: $0 REV PAIRS WORKLOAD..." >&2
	exit 2
fi
rev=$1 pairs=$2
shift 2
case $pairs in
'' | *[!0-9]* | 0) echo "perf-ab: PAIRS must be a positive integer, got '$pairs'" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/runs"
git -C "$root" archive "$commit" | tar -x -C "$tmp/base"
echo "perf-ab: base $rev ($commit) vs $root; $pairs pairs of ${seconds}s runs per workload" >&2

# run SIDE TREE WORKLOAD SEED runs one benchmark and keeps its result line.
run() {
	local side=$1 tree=$2 wl=$3 seed=$4
	local out="$tmp/runs/$wl.$side.$seed"
	echo "perf-ab: $wl seed $seed $side" >&2
	if ! (cd "$tree" && bash perfbench/run.sh --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0) \
		>"$out.stdout" 2>"$out.stderr"; then
		echo "perf-ab: FAIL: $wl seed $seed on $side exited non-zero:" >&2
		tail -n 20 "$out.stderr" >&2
		exit 1
	fi
	tail -n 1 "$out.stdout" >"$out.json"
}

for wl in "$@"; do
	for seed in $(seq 1 "$pairs"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run base "$tmp/base" "$wl" "$seed"
			run head "$root" "$wl" "$seed"
		else
			run head "$root" "$wl" "$seed"
			run base "$tmp/base" "$wl" "$seed"
		fi
	done
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$pairs" "$@" <<'PY'
import json, statistics, sys

bench_path, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(bench_path))["end_to_end"]

def load(wl, side, seed):
    with open(f"{runs}/{wl}.{side}.{seed}.json") as f:
        return json.loads(f.read())

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

def worse_by(base, head, better):
    """Relative change of head against base in the bad direction."""
    if base == head:
        return 0.0
    if base == 0:
        return float("inf") if (head > base) == (better == "lower") else float("-inf")
    rel = (head - base) / abs(base)
    return rel if better == "lower" else -rel

failed = False
for wl in workloads:
    for seed in range(1, pairs + 1):
        for side in ("base", "head"):
            r = load(wl, side, seed)
            vals = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.6g}" for m in metrics)
            flag = "" if r.get("correct") else "  (incorrect output)"
            print(f"run {wl:<11} seed {seed:<3} {side}  {vals}{flag}")
print()
print(f"{'workload':<11} {'metric':<13} {'base median (IQR)':<22} {'head median (IQR)':<22} {'change':>8} "
      f"{'head wins':>10} {'past bound':>10}  verdict")
for wl in workloads:
    res = {side: [load(wl, side, s) for s in range(1, pairs + 1)] for side in ("base", "head")}
    for side, rs in res.items():
        for seed, r in enumerate(rs, 1):
            if not r.get("correct"):
                print(f"{wl}: seed {seed} on {side} reported incorrect output")
                failed = True
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        b = [r["metrics"][name]["value"] for r in res["base"]]
        h = [r["metrics"][name]["value"] for r in res["head"]]
        rels = [worse_by(x, y, better) for x, y in zip(b, h)]
        wins = sum(r < 0 for r in rels)
        past = sum(r > bound for r in rels)
        mb, mh = statistics.median(b), statistics.median(h)
        change = f"{100 * (mh / mb - 1):+.1f}%" if mb else "n/a"
        verdict = "ok"
        if 2 * past > pairs:
            verdict = f"FAIL (worse by >{100 * bound:g}% on {past}/{pairs} pairs)"
            failed = True
        sb, sh = f"{mb:.4g} ({iqr(b):.3g})", f"{mh:.4g} ({iqr(h):.3g})"
        print(f"{wl:<11} {name:<13} {sb:<22} {sh:<22} {change:>8} {f'{wins}/{pairs}':>10} {f'{past}/{pairs}':>10}  {verdict}")
sys.exit(1 if failed else 0)
PY
