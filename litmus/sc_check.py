#!/usr/bin/env python3
"""Sequential-consistency pre-check of the litmus models.

Usage: python3 litmus/sc_check.py [model.litmus ...]   (default: every model)

Runs every interleaving of each model's threads under sequential
consistency and fails when one reaches the `exists` state. A forbidden
state that SC reaches is reached under every weaker model too, so such a
model can never print "Positive: 0" in herd7: its initial state, its
registers or its `exists` clause is wrong. Passing proves nothing about
the architecture's relaxations; herd7 (run_litmus.sh) is the check of
record. This one needs only python3, and reads the instruction subset the
models here use: MOV, STR, STLR, LDR, LDAR, SWP*, LDADD*, CAS* (AArch64);
MOV, XCHG, MFENCE (X86).
"""
import glob
import itertools
import os
import re
import sys


def reg(name):
    """AArch64 Wn and Xn name one register."""
    name = name.strip()
    return "X" + name[1:] if re.fullmatch(r"[WX]\d+", name) else name


def parse(path):
    text = open(path).read()
    arch = text.split()[0]
    body = re.sub(r'"[^"]*"', "", text, count=1, flags=re.S)
    init = body[body.index("{") + 1 : body.index("}")]
    rest = body[body.index("}") + 1 :]
    mem, regs = {}, {}
    for item in init.replace("\n", " ").split(";"):
        if not item.strip():
            continue
        lhs, rhs = (t.strip() for t in item.split("="))
        if ":" in lhs:
            proc, name = lhs.split(":")
            regs[(int(proc), reg(name))] = rhs
        else:
            mem[lhs] = int(rhs)
    table = rest[: rest.index("exists")]
    rows = [[c.strip() for c in line.strip().rstrip(";").split("|")] for line in table.splitlines() if "|" in line]
    procs = [[row[i] for row in rows[1:] if i < len(row) and row[i]] for i in range(len(rows[0]))]
    conds = re.findall(r"(?:(\d+):)?([A-Za-z0-9_]+)=(\d+)", rest[rest.index("exists") :])
    return arch, mem, regs, procs, conds


def value(tok, regs):
    tok = tok.strip()
    return int(tok[1:]) if tok[0] in "#$" else regs.get(reg(tok), 0)


def step(arch, ins, mem, regs):
    op, _, operands = ins.partition(" ")
    a = [x.strip() for x in re.split(r",(?![^\[]*\])", operands)]
    if arch == "AArch64":
        at = lambda t: regs[reg(t.strip("[]"))]
        if op == "MOV":
            regs[reg(a[0])] = value(a[1], regs)
        elif op in ("STR", "STLR"):
            mem[at(a[1])] = value(a[0], regs)
        elif op in ("LDR", "LDAR"):
            regs[reg(a[0])] = mem.get(at(a[1]), 0)
        elif op.startswith("SWP"):
            old = mem.get(at(a[2]), 0)
            mem[at(a[2])] = value(a[0], regs)
            regs[reg(a[1])] = old
        elif op.startswith("LDADD"):
            old = mem.get(at(a[2]), 0)
            mem[at(a[2])] = old + value(a[0], regs)
            regs[reg(a[1])] = old
        elif op.startswith("CAS"):
            old = mem.get(at(a[2]), 0)
            if old == value(a[0], regs):
                mem[at(a[2])] = value(a[1], regs)
            regs[reg(a[0])] = old
        else:
            raise ValueError("unsupported instruction: " + ins)
    else:
        is_mem = lambda t: t.startswith("[")
        loc = lambda t: t.strip("[]")
        if op == "MOV":
            if is_mem(a[0]):
                mem[loc(a[0])] = value(a[1], regs)
            else:
                regs[a[0]] = mem.get(loc(a[1]), 0) if is_mem(a[1]) else value(a[1], regs)
        elif op == "XCHG":
            m, r = (a[0], a[1]) if is_mem(a[0]) else (a[1], a[0])
            old = mem.get(loc(m), 0)
            mem[loc(m)] = value(r, regs)
            regs[r] = old
        elif op != "MFENCE":
            raise ValueError("unsupported instruction: " + ins)


def witnesses(path):
    """Interleavings that reach the exists state, and all interleavings."""
    arch, mem0, regs0, procs, conds = parse(path)
    order = [p for p, prog in enumerate(procs) for _ in prog]
    hits = total = 0
    for schedule in set(itertools.permutations(order)):
        mem = dict(mem0)
        regs = [{} for _ in procs]
        for (p, name), v in regs0.items():
            regs[p][name] = int(v) if v.isdigit() else v  # a location name
        pcs = [0] * len(procs)
        for p in schedule:
            step(arch, procs[p][pcs[p]], mem, regs[p])
            pcs[p] += 1
        hit = all(
            (regs[int(proc)].get(reg(name), 0) if proc else mem.get(name, 0)) == int(v) for proc, name, v in conds
        )
        hits += hit
        total += 1
    return hits, total


def main():
    root = os.path.dirname(os.path.abspath(__file__))
    paths = sys.argv[1:] or sorted(glob.glob(os.path.join(root, "*", "*.litmus")))
    fail = False
    for path in paths:
        hits, total = witnesses(path)
        name = os.path.relpath(path, root)
        print(f"{'FAIL (reachable under SC)' if hits else 'ok  '} {name}: {hits}/{total} interleavings")
        fail = fail or hits != 0
    print(f"checked {len(paths)} litmus tests under SC")
    return 1 if fail else 0


if __name__ == "__main__":
    sys.exit(main())
