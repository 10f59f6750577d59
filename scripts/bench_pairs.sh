#!/usr/bin/env bash
# Paired benchmark runs of a parent revision against this working tree:
# the procedure behind every results/pr*/pairs.txt.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [work-dir]
#
# Extracts <parent-rev> into <work-dir>/<rev>/tree (default work-dir:
# .bench_build/pairs, which is gitignored) and builds its benchmark into
# <work-dir>/<rev>/target, builds this tree's benchmark where it always
# goes (benchmark/target), then runs `run --workload <workload> --seed i`
# for i = 1..<pairs> on both — each from its own tree's root, because the
# runner reads BENCHMARK.json from the working directory — parent first
# on odd seeds and change first on even ones. Prints one row per pair,
# each side's quartiles and the win count, the exact figures of seed 1,
# and `compare parent change`, and appends one JSON line — date, both
# revisions, whether the tree was dirty, both sides' op_s_p50 quartiles,
# wins, failed ops, CPU model — to results/history.jsonl, the committed
# perf record. Result files stay under
# <work-dir>/out/<workload>/{parent,change}.
#
# The parent is extracted with `git archive`, not checked out as a
# worktree: nothing is registered in .git and nothing can be left
# half-removed. Run nothing else on the host meanwhile (the solver
# workloads pin themselves to one CPU; a compile beside them shows).
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify --short=12 "$1^{commit}")
head=$(git rev-parse --short=12 HEAD)
# Dirty means the code differs from HEAD: the script's own output under
# results/ (history.jsonl, redirected pair tables) does not count, and
# neither does benchmark/Cargo.lock, which the benchmark build rewrites.
if [ -n "$(git status --porcelain -- . ':(exclude)results' ':(exclude)benchmark/Cargo.lock')" ]; then
    dirty=true
else
    dirty=false
fi
workload=$2
pairs=$3
work=$(mkdir -p "${4:-.bench_build/pairs}" && cd "${4:-.bench_build/pairs}" && pwd)

tree=$work/$rev/tree
if [ ! -f "$tree/BENCHMARK.json" ]; then
    mkdir -p "$tree"
    git archive "$rev" | tar -x -C "$tree"
fi
CARGO_TARGET_DIR=$work/$rev/target \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
parent_bin=$work/$rev/target/release/greem-benchmark
change_bin=$root/benchmark/target/release/greem-benchmark

out=$work/out/$workload
mkdir -p "$out/parent" "$out/change"
run() { # side seed
    local dir=$root bin=$change_bin
    if [ "$1" = parent ]; then dir=$tree bin=$parent_bin; fi
    (cd "$dir" && "$bin" run --workload "$workload" --seed "$2" --out "$out/$1") >/dev/null
}
for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "seed $seed: $side" >&2
        run "$side" "$seed"
    done
done

python3 - "$out" "$workload" "$pairs" "$rev" "$head" "$dirty" <<'PY'
import datetime, json, statistics, sys
out, workload, pairs, rev, head, dirty = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5], sys.argv[6]
def load(side, seed):
    return json.load(open(f"{out}/{side}/{workload}-seed{seed}-trace0.json"))
print(f"## {workload}, {pairs} pairs, parent {rev} vs working tree, untraced; op_s_p50 in quiet-host seconds")
print("seed  first   parent_op_s_p50  change_op_s_p50  change/parent-1  failed(p/c)  parent_force_err_p50     change_force_err_p50")
ops = {"parent": [], "change": []}
failed = {"parent": 0, "change": 0}
wins = 0
for seed in range(1, pairs + 1):
    p, c = load("parent", seed), load("change", seed)
    po, co = p["metrics"]["op_s_p50"]["value"], c["metrics"]["op_s_p50"]["value"]
    ops["parent"].append(po)
    ops["change"].append(co)
    wins += co < po
    failed["parent"] += p["failed"]
    failed["change"] += c["failed"]
    print(f"{seed:4d}  {'parent' if seed % 2 else 'change'}  {po:15.4f}  {co:15.4f}  {100 * (co / po - 1):+14.1f}%"
          f"  {p['failed']:5d}/{c['failed']:<5d}  {p['exact']['force_err_p50']!r:>22}  {c['exact']['force_err_p50']!r:>22}")
def quartiles(v):
    return statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
def shown(v):
    return " / ".join(f"{x:.4f}" for x in quartiles(v))
print(f"parent q1/median/q3: {shown(ops['parent'])}   change: {shown(ops['change'])}   "
      f"change wins {wins} of {pairs}")
record = {
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "parent": rev, "head": head, "dirty": dirty == "true",
    "workload": workload, "pairs": pairs,
    **{f"{side}_op_s_p50": dict(zip(("q1", "median", "q3"), quartiles(ops[side]))) for side in ops},
    "wins": wins, "failed": failed, "cpu_model": c["host"]["cpu_model"],
}
with open("results/history.jsonl", "a") as history:
    history.write(json.dumps(record) + "\n")
print(f"\n## exact figures, {workload} seed 1")
p, c = load("parent", 1), load("change", 1)
for k in p["exact"]:
    print(f"{k:22s} parent {p['exact'][k]!r}  change {c['exact'].get(k)!r}")
print(f"\n## `compare parent change`, {workload}, seeds 1-{pairs}")
PY
"$change_bin" compare "$out/parent" "$out/change"
