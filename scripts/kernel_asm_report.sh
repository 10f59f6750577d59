#!/usr/bin/env bash
# What the compiler made of the PP kernel's source loop, read off the
# binary: the check behind DESIGN.md §11's shape table and the
# `locality-smoke` CI gate.
#
#   scripts/kernel_asm_report.sh [binary]
#
# Disassembles the two `pp_accel_*` x86 symbols of <binary> (default:
# target/release/harness, built if missing) and finds every back-edge
# loop that contains the rsqrt seed. The seeds in a loop are the
# lane-vector interactions one trip carries; per loop the report prints
# vector-arithmetic instructions, stack stores, stack loads (moves and
# memory operands), register-register moves and broadcasts (instructions
# and {1toN} operands), per trip and per lane-vector interaction. A
# symbol's main loop is the one with the most seeds: it is piped through
# `llvm-mca` when that is on PATH (cycles per trip against the block's
# reciprocal throughput).
#
# Exits 1 if a main loop is missing or spills more than the ceiling in
# scripts/kernel_asm_ceiling.txt (stack stores per lane-vector
# interaction, one `<variant> <ceiling>` line each).
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
bin=${1:-$root/target/release/harness}
if [ ! -x "$bin" ]; then
    (cd "$root" && cargo build --release --offline --quiet -p greem-bench --bin harness) >&2
fi

python3 - "$bin" "$root/scripts/kernel_asm_ceiling.txt" <<'PY'
import re, shutil, subprocess, sys

binary, ceiling_file = sys.argv[1], sys.argv[2]
ceilings = dict(l.split() for l in open(ceiling_file) if l.strip() and not l.startswith("#"))
SEEDS = ("vrsqrt14ps", "vrsqrtps")
ARITH = re.compile(r"^v(add|sub|mul|max|min|div|sqrt|fn?m(add|sub)\d+|rsqrt\w*|rcp\w*|cvt\w+|cmp\w*|and\w*|or|xor|blend\w*)[ps][ds]$")
MCPU = {"avx512": "skylake-avx512", "avx2": "haswell"}

symbols = {}
for line in subprocess.run(["nm", binary], capture_output=True, text=True, check=True).stdout.splitlines():
    m = re.search(r"\s[Tt]\s(\S*pp_accel_(avx512|avx2)\S*)$", line)
    if m:
        symbols[m.group(2)] = m.group(1)

def disassemble(symbol):
    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn", f"--disassemble={symbol}", binary],
                         capture_output=True, text=True, check=True).stdout
    insns = []
    for line in out.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\s+(\S+)\s*(.*)$", line)
        if m:
            insns.append((int(m.group(1), 16), m.group(2), m.group(3).split("#")[0].strip()))
    return insns

def loops_with_seed(insns):
    index = {addr: i for i, (addr, _, _) in enumerate(insns)}
    found = []
    for i, (addr, op, args) in enumerate(insns):
        m = re.match(r"([0-9a-f]+)\b", args)
        if op.startswith("j") and m and int(m.group(1), 16) in index and int(m.group(1), 16) <= addr:
            body = insns[index[int(m.group(1), 16)]: i + 1]
            if any(o in SEEDS for _, o, _ in body):
                found.append(body)
    # Innermost only: drop a loop that contains another seed loop.
    def contains(outer, inner):
        return outer is not inner and outer[0][0] <= inner[0][0] and inner[-1][0] <= outer[-1][0]
    return [b for b in found if not any(contains(b, other) for other in found)]

def count(body):
    c = dict(seeds=0, arith=0, stores=0, loads=0, moves=0, bcasts=0)
    for _, op, args in body:
        operands = args.rsplit(",", 1)
        dest = operands[-1]
        stack = "(%rsp" in args or "(%rbp" in args
        if op in SEEDS:
            c["seeds"] += 1
        if ARITH.match(op):
            c["arith"] += 1
        if op.startswith("vmov") and stack and ("(%rsp" in dest or "(%rbp" in dest):
            c["stores"] += 1
        elif stack:
            c["loads"] += 1
        if re.match(r"vmov[au]p[ds]$", op) and "(" not in args:
            c["moves"] += 1
        if op.startswith("vbroadcast") or "{1to" in args:
            c["bcasts"] += 1
    return c

def mca(variant, body):
    if not shutil.which("llvm-mca"):
        return "llvm-mca: not on PATH"
    labels = {addr: f".L{n}" for n, (addr, _, _) in enumerate(body)}
    text = []
    for addr, op, args in body:
        m = re.match(r"([0-9a-f]+)\b", args)
        if op.startswith("j") and m:
            args = labels.get(int(m.group(1), 16), ".L0")
        text.append(f"{labels[addr]}:\n\t{op}\t{args}")
    run = subprocess.run(["llvm-mca", f"-mcpu={MCPU[variant]}", "-iterations=200"],
                         input="\n".join(text) + "\n", capture_output=True, text=True)
    if run.returncode != 0:
        return "llvm-mca: " + (run.stderr.strip().splitlines() or ["failed"])[-1]
    cycles = int(re.search(r"Total Cycles:\s+(\d+)", run.stdout).group(1))
    rthroughput = float(re.search(r"Block RThroughput:\s+([\d.]+)", run.stdout).group(1))
    return f"llvm-mca -mcpu={MCPU[variant]}: {cycles / 200:.1f} cycles/trip, block reciprocal throughput {rthroughput:.1f}"

failed = False
for variant in ("avx512", "avx2"):
    if variant not in symbols:
        print(f"## {variant}: no pp_accel_{variant} symbol in {binary}")
        failed = True
        continue
    loops = sorted(loops_with_seed(disassemble(symbols[variant])), key=lambda b: -count(b)["seeds"])
    print(f"## {variant}: {symbols[variant]}, {len(loops)} seed loops")
    if not loops:
        print("no loop with an rsqrt seed found")
        failed = True
        continue
    print("loop_at  insns  seeds |  per trip: arith stores loads moves bcasts |  per lane-vector interaction: arith stores loads moves bcasts")
    for body in loops:
        c = count(body)
        k = c["seeds"]
        per = "  ".join(f"{c[f] / k:5.2f}" for f in ("arith", "stores", "loads", "moves", "bcasts"))
        print(f"{body[0][0]:7x}  {len(body):5d}  {k:5d} |  {c['arith']:14d} {c['stores']:6d} {c['loads']:5d} {c['moves']:5d} {c['bcasts']:6d} |  {per}")
    main = loops[0]
    c = count(main)
    spills = c["stores"] / c["seeds"]
    ceiling = float(ceilings[variant])
    verdict = "ok" if spills <= ceiling else "OVER"
    print(f"main loop at {main[0][0]:x}: {c['seeds']} lane-vector interactions a trip, "
          f"{spills:.2f} stack stores each (ceiling {ceiling:.2f}: {verdict})")
    print(mca(variant, main))
    failed |= spills > ceiling
    print()
sys.exit(1 if failed else 0)
PY
