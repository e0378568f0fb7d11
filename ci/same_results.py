#!/usr/bin/env python3
"""Checks that two minedig binaries produce byte-identical results.

usage: ci/same_results.py <parent-minedig> <change-minedig>

Runs `scan alexa|com|net|org`, `attribute 1`, `shortlink 50000` and
`shortlink 1709203` at seeds 2018 and 7 with both binaries. Each command
runs clean and under MINEDIG_FAULT_SEED=5; `attribute` also runs both
ways with MINEDIG_HEALTH=1. Every variant runs on MINEDIG_SHARDS=1 and on
the default backend, three times each: plain, checkpointed into a fresh
MINEDIG_CKPT_DIR, and again with --resume from that directory.

Stdout must be equal, leaving out the wall times on the campaign lines
and the checkpoint directory's path. The journals each binary leaves in
its checkpoint directory must be equal byte for byte, after the
checkpointed run and again after the resume. The script exits 1 and
names the first difference it finds; otherwise it prints a summary and
exits 0. Binaries run one at a time.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

SEEDS = (2018, 7)
COMMANDS = (
    ("scan", "alexa"),
    ("scan", "com"),
    ("scan", "net"),
    ("scan", "org"),
    ("attribute", "1"),
    ("shortlink", "50000"),
    ("shortlink", "1709203"),
)
BACKENDS = ({"MINEDIG_SHARDS": "1"}, {})
# A campaign line ends "... <items> <unit> in <wall>s".
WALL = re.compile(r"^(.+: .+, \d+ \S+ in )\d+\.\d+s$", re.M)


def variants(command):
    """The environment variants one command runs under."""
    yield {}
    yield {"MINEDIG_FAULT_SEED": "5"}
    if command[0] == "attribute":
        yield {"MINEDIG_HEALTH": "1"}
        yield {"MINEDIG_HEALTH": "1", "MINEDIG_FAULT_SEED": "5"}


def run(binary, args, env, ckpt_dir):
    """Runs `binary args` with exactly `env` as its MINEDIG_* variables
    and returns its stdout with wall times and `ckpt_dir` masked."""
    full = {k: v for k, v in os.environ.items() if not k.startswith("MINEDIG_")}
    full.update(env)
    proc = subprocess.run(
        [binary, *args], env=full, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    if proc.returncode != 0:
        sys.exit(
            f"{binary} {' '.join(args)} {env}: exit {proc.returncode}\n"
            + proc.stderr.decode(errors="replace")
        )
    out = proc.stdout.decode()
    if ckpt_dir:
        out = out.replace(ckpt_dir, "<ckpt>")
    return WALL.sub(r"\1<wall>s", out)


def journals(ckpt_dir):
    """The journals in `ckpt_dir`, by name."""
    names = sorted(os.listdir(ckpt_dir))
    return {n: open(os.path.join(ckpt_dir, n), "rb").read() for n in names}


def first_difference(a, b):
    """The first line where texts `a` and `b` differ, as a message."""
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}:\n  parent: {x}\n  change: {y}"
    return f"line counts differ: parent {len(la)}, change {len(lb)}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    parent, change = (os.path.abspath(p) for p in sys.argv[1:])
    scratch = tempfile.mkdtemp(prefix="same-results-")
    outputs = journal_sets = journal_files = 0
    try:
        for command in COMMANDS:
            for seed in SEEDS:
                args = [*command, str(seed)]
                for variant in variants(command):
                    for backend in BACKENDS:
                        env = {**variant, **backend}
                        dirs = {}
                        for side in ("parent", "change"):
                            dirs[side] = os.path.join(scratch, side)
                            shutil.rmtree(dirs[side], ignore_errors=True)
                            os.makedirs(dirs[side])
                        for mode in ("plain", "checkpointed", "resumed"):
                            texts = {}
                            for side, binary in (("parent", parent), ("change", change)):
                                run_env, run_args, ckpt = dict(env), list(args), None
                                if mode != "plain":
                                    ckpt = dirs[side]
                                    run_env["MINEDIG_CKPT_DIR"] = ckpt
                                if mode == "resumed":
                                    run_args.append("--resume")
                                texts[side] = run(binary, run_args, run_env, ckpt)
                            what = f"{' '.join(args)} {env} {mode}"
                            if texts["parent"] != texts["change"]:
                                print(f"stdout differs: {what}")
                                print(first_difference(texts["parent"], texts["change"]))
                                return 1
                            outputs += 1
                            if mode == "plain":
                                continue
                            a, b = journals(dirs["parent"]), journals(dirs["change"])
                            if a != b:
                                print(f"journals differ: {what}")
                                for name in sorted(set(a) | set(b)):
                                    if a.get(name) != b.get(name):
                                        print(f"  first differing journal: {name}")
                                        break
                                return 1
                            journal_sets += 1
                            journal_files += len(a)
                        print(f"same: {' '.join(args)} {env}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(
        f"same results: {outputs} stdouts equal and {journal_sets} journal sets "
        f"({journal_files} journals) byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
