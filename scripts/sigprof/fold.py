#!/usr/bin/env python3
"""Folds the dumps of scripts/sigprof/prof.c into per-role tables.

    python3 scripts/sigprof/fold.py [--top N] [--inline] [--role NAME=SUBSTR ...] DUMP...

Every sample's addresses are symbolised against the file they fall in
(`nm -C -S`, and `nm -D` for a stripped libc, whose internals are in no
table: a pc past the end of the nearest symbol below it prints as the
file and the offset where that symbol ends — `_int_malloc` as
`libc.so.6+0x96063 (after __default_morecore)`, never as
`__default_morecore` itself, one row for all of that gap — and
addr2line, which names such a pc after the symbol too, is believed
only where it has a line for it; with --inline, `addr2line -i`
expands a pc into the chain of inlined functions it sits in, innermost
first, which needs line tables: CARGO_PROFILE_RELEASE_DEBUG=
line-tables-only — without it a role's entry points are often inlined
out of sight). A thread belongs to the first role one of whose
substrings any of its samples ever showed in any frame — by default
`sequential` (the benchmark's bracket, on the main thread), `origin`
(the shard loop), `donor` (the client loop), else `other`; --role may
repeat a name — and each
role gets a leaf table (where the pc was: self time) and an inclusive
one (a function once per stack it is anywhere on), as shares of the
role's samples. Each role's header gives its share of all samples and
its samples per `sequential` sample — the farm's CPU for a unit of
work, next to the bracket's, so two builds compare without a timer —
and a first line sums that over every role but `sequential`.
"""
import bisect
import collections
import os
import subprocess
import sys

ROLES = [
    ("sequential", "Inputs::sequential"),
    ("origin", "net::evloop::serve"),
    ("origin", "net::server::ShardCtx"),
    ("donor", "net::client::"),
]


def load(path):
    """The executable mappings `(lo, hi, load base, file)` and the samples."""
    maps, base, samples = [], {}, []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                # (A file's lowest mapping, at offset 0, is its load base:
                # a PIE's symbols are addresses relative to it.)
                base.setdefault(f[5], lo)
                if "x" in f[1]:
                    maps.append((lo, hi, base[f[5]], f[5]))
        elif kind == "S":
            f = rest.split()
            samples.append((path + ":" + f[0], [int(x, 16) for x in f[1:]]))
    return maps, samples


class Symbols:
    """The defined text symbols of one ELF file, by address, with sizes."""

    def __init__(self, path):
        table = set()
        for flags in (["-n"], ["-n", "-D"]):
            out = subprocess.run(["nm", "-C", "-S", "--defined-only", *flags, path],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                # `addr size type name`, or `addr type name` if unsized.
                r = line.split(None, 3)
                if len(r) == 4 and len(r[2]) == 1:
                    addr, size, kind, name = int(r[0], 16), int(r[1], 16), r[2], r[3]
                else:
                    r = line.split(None, 2)
                    if len(r) != 3:
                        continue
                    addr, size, kind, name = int(r[0], 16), None, r[1], r[2]
                if kind in "tTwWiV":
                    table.add((addr, size, name.split("@", 1)[0]))  # (no `@@GLIBC_2.2.5`)
        # (Of aliases, the last — a sized one, if any — wins the bisect.)
        table = sorted(table, key=lambda row: (row[0], -1 if row[1] is None else row[1], row[2]))
        self.path, self.addrs, self.rows = path, [a for a, _, _ in table], table

    def frames(self, vaddrs, inline):
        """`{vaddr: [function, ...]}`: the symbol, or addr2line's chain."""
        def symbol(v):
            at = bisect.bisect_right(self.addrs, v) - 1
            if at < 0:
                return "?"
            addr, size, name = self.rows[at]
            if size is not None and v >= addr + size:
                # (The offset is where the symbol ends: one row per gap.)
                return f"{os.path.basename(self.path)}+{addr + size:#x} (after {name})"
            return name
        frames = {v: [symbol(v)] for v in vaddrs}
        if inline and vaddrs:
            out = subprocess.run(["addr2line", "-C", "-f", "-i", "-a", "-e", self.path]
                                 + [hex(v) for v in vaddrs], capture_output=True, text=True).stdout
            # Per address: `0x…`, then (function, file:line) row pairs. A
            # pair without a line is addr2line naming the nearest symbol
            # below, past its end or not: the sized symbol above stands.
            for line in out.splitlines():
                if line.startswith("0x"):
                    at, chain, function = int(line, 16), [], None
                elif function is None:
                    function = line
                else:
                    if function != "??" and not line.startswith("??"):
                        chain.append(function)
                        frames[at] = chain
                    function = None
        return frames


def main(argv):
    top, inline, roles, dumps = 25, False, [], []
    args = iter(argv)
    for a in args:
        if a == "--top":
            top = int(next(args))
        elif a == "--inline":
            inline = True
        elif a == "--role":
            roles.append(tuple(next(args).split("=", 1)))
        else:
            dumps.append(a)
    roles = roles or ROLES
    threads = collections.defaultdict(list)
    for path in dumps:
        maps, samples = load(path)

        def locate(pc):
            for lo, hi, base, file in maps:
                if lo <= pc < hi:
                    return file, pc - base
            return None, pc

        for thread, stack in samples:
            # A return address is the instruction after the call.
            located = [locate(pc - (i > 0)) for i, pc in enumerate(stack)]
            threads[thread].append(located)
    wanted = collections.defaultdict(set)
    for stacks in threads.values():
        for stack in stacks:
            for file, vaddr in stack:
                if file:
                    wanted[file].add(vaddr)
    names = {}
    for file, vaddrs in wanted.items():
        found = Symbols(file).frames(sorted(vaddrs), inline)
        names.update(((file, v), chain) for v, chain in found.items())
    by_role = collections.defaultdict(list)
    for stacks in threads.values():
        named = [[n for f in stack for n in names.get(f, ["?"])] for stack in stacks]
        shown = {name for stack in named for name in stack}
        role = next((r for r, sub in roles if any(sub in n for n in shown)), "other")
        by_role[role].extend(named)
    total = sum(len(s) for s in by_role.values())
    sequential = len(by_role.get("sequential", []))

    def per_sequential(n):
        return f", {n / sequential:.3f} per sequential sample" if sequential else ""

    farm = total - sequential
    print(f"== all but sequential: {farm} samples{per_sequential(farm)}")
    for role, stacks in sorted(by_role.items(), key=lambda kv: -len(kv[1])):
        share = f"{100 * len(stacks) / total:.1f}% of {total}"
        print(f"== {role}: {len(stacks)} samples, {share}{per_sequential(len(stacks))}")
        leaf = collections.Counter(stack[0] for stack in stacks)
        inclusive = collections.Counter(name for stack in stacks for name in set(stack))
        for title, table in (("leaf", leaf), ("inclusive", inclusive)):
            print(f"-- {title}")
            for name, n in table.most_common(top):
                print(f"{100 * n / len(stacks):6.2f}%  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
