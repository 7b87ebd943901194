"""Time each tuning constant and fast-path fork of htclip against the
workloads, to tell the ones that earn their place from the ones that do
not.

A variant patches the imported htclip at run time: a constant at 1/4
and at 4 times its value, or a fork taken out (a function replaced, or
a function's source rewritten and re-run in its module).  For each
variant the script runs, in process and alternating which side goes
first from round to round, the three perfbench workload ops
(rate-hard-cvx, rate-stable-ball and verify-clip, from
perfbench/workloads.py at --seed) and the AC-07 and AC-08 rate runs of
tests/test_acceptance.py (as `htclip run` of their configs at 4
threads, so their walls include writing the outputs), each once
unpatched and once patched.  Every side has its own workload objects,
whose check() compares each op's outputs with that side's first op;
the digest of a variant's op must equal the unpatched one, or the
variant is reported as changing bytes.

For each variant and op the file holds the per-round op times of both
sides (rate-hard-cvx as the median of its --hard-repeats ops a round),
their medians, variant over base ("ratio": above 1, the variant is
slower, so the constant or fork earns its place), the rounds in which
the variant was slower, and whether the digests agree.  A variant whose
target is not in the imported tree (a constant an older or newer tree
does not have) is listed under "absent".  --src points at another
checkout's src/ (say, a `git archive` copy of the parent), so a fork
that a change deletes can be measured in the tree that still has it.

    PYTHONPATH=src python tools/knobs.py --out BENCH_27.json \\
        [--rounds 3] [--seed 1] [--variants NOISE_BUDGET/4 ...] [--src DIR]

--list prints the variants.  The results go under "knobs" (or --key) in
--out, and whatever else that file holds is kept.  numpy only; not part
of the tests.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import platform
import statistics
import sys
import tempfile
import textwrap
import time

import numpy as np

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rate-hard-cvx", "rate-stable-ball", "verify-clip")
# the acceptance suite's rate runs (tests/test_acceptance.py), as configs
AC_RUN = {"T_grid": {"min": 1024, "max": 65536, "ratio": 2}, "trials": 200,
          "master_seed": 20260822}
AC_THREADS = 4
AC_CONFIGS = {
    "AC-07": {
        "problem": {"kind": "hard", "d": 4, "G": 1.0, "D": 1.0, "mu": 1.0},
        "noise": {"kind": "hard-instance", "p": 1.5, "sigma_s": 1.0, "sigma_l": 2.0},
        "schedule": {"regime": "str-ex"},
        "hardness": {"regime": "str-fano", "d_star": 4},
        "run": AC_RUN,
    },
    "AC-08": {
        "problem": {
            "kind": "euclid-norm", "d": 4, "G": 1.0,
            "x1_mode": {"kind": "offset", "vector": [0.5, 0.5, 0.5, 0.5]},
        },
        "noise": {"kind": "additive-gaussian", "p": 2.0, "scales": 0.25},
        "schedule": {"regime": "cvx-ex-T"},
        "run": AC_RUN,
    },
}
OPS = WORKLOADS + tuple(AC_CONFIGS)


class Absent(Exception):
    """A variant's target is not in the imported tree."""


def _get(module, name: str):
    if not hasattr(module, name):
        raise Absent(f"{module.__name__}.{name}")
    return getattr(module, name)


def _rewrite(module, qualname: str, *edits) -> object:
    """The function module.qualname (a function or Class.method) with
    each (old, new) of edits made to its source, compiled in module's
    namespace."""
    owner, _, name = qualname.rpartition(".")
    holder = _get(module, owner) if owner else module
    source = textwrap.dedent(inspect.getsource(_get(holder, name)))
    for old, new in edits:
        if old not in source:
            raise Absent(f"{module.__name__}.{qualname}: {old.strip()!r}")
        source = source.replace(old, new)
    space = dict(vars(module))
    exec(compile(source, f"<{qualname} rewritten>", "exec"), space)
    return space[name]


def _scaled(name: str, factor: float):
    """Patches that set constant name, module.NAME, to factor times its
    value in every htclip module that binds it."""
    def patch(ops):
        from htclip import algorithms, hardness, harness, noise

        mods = [m for m in (algorithms, noise, hardness, harness) if hasattr(m, name)]
        if not mods:
            raise Absent(name)
        value = getattr(mods[0], name)
        return [(m, name, type(value)(value * factor)) for m in mods]
    return patch


def _sub_chunk_entries(factor: float):
    # _sub_chunk binds _SUB_CHUNK_ENTRIES as its default argument
    def patch(ops):
        from htclip import algorithms

        value = _get(algorithms, "_SUB_CHUNK_ENTRIES")
        return [(algorithms._sub_chunk, "__defaults__", (int(value * factor),))]
    return patch


def _stable_blocks(factor: float):
    # the five row blocks a core's stable draw is counted at
    def patch(ops):
        from htclip import algorithms, noise

        new = _rewrite(noise, "_stable_scratch",
                       ("_cores() * 5 *", f"_cores() * {5 * factor} *"))
        return [(noise, "_stable_scratch", new), (algorithms, "_stable_scratch", new)]
    return patch


def _no_busy_core(ops):
    from htclip import algorithms

    _get(algorithms, "_busy_core")
    return [(algorithms, "_busy_core", contextlib.nullcontext)]


def _unsplit_stable_draw(ops):
    # the kernel's many-row stable draw as one block on the calling thread
    from htclip import noise

    new = _rewrite(noise, "GradOracle.draw", (
        "_split(block, len(rng), n * d, scratch)",
        "block(0, len(rng), *scratch(len(rng)))",
    ))
    return [(noise.GradOracle, "draw", new)]


def _eta_columns(ops):
    # _Steps.at hands out (k, 1) eta columns instead of (k, d) tiles
    from htclip import algorithms

    new = _rewrite(algorithms, "_Steps.at", (
        "np.repeat(self.eta[rows, pos], self.d).reshape(k, self.d)",
        "self.eta[rows, pos, None]",
    ), (
        "np.repeat(self.eta[rows, pos + 1], self.d).reshape(k, self.d)",
        "self.eta[rows, pos + 1, None]",
    ))
    return [(algorithms._Steps, "at", new)]


def _no_underflow_hook(ops):
    # every dense hard step subtracts g0 from every row bar its event rows
    from htclip import algorithms

    new = _rewrite(algorithms, "_Events.subtract",
                   ("if self.nan or self.underflow:", "if True:"),
                   ("if self.nan else", "if True else"))
    return [(algorithms._Events, "subtract", new)]


def _inline_draws(ops):
    from htclip import clipping, noise

    _get(noise, "_draw_ahead")

    def inline(oracle, rng, sizes):
        for m in sizes:
            yield oracle.draw(rng, m)

    return [(noise, "_draw_ahead", inline), (clipping, "_draw_ahead", inline)]


def _plain_row_norms(ops):
    # row_norms without its short-row fork: np.add.reduce along every axis
    import htclip
    from htclip import _util

    new = _rewrite(_util, "row_norms", ("if not 2 <= d < 8:", "if True:"))
    mods = [m for m in vars(htclip).values()
            if inspect.ismodule(m) and getattr(m, "row_norms", None) is _util.row_norms]
    return [(m, "row_norms", new) for m in mods]


def _one_thread(ops):
    # rate-stable-ball at --threads 1 (its workload runs at 2)
    return [(ops["rate-stable-ball"], "threads", 1)]


# forks that a tree before their deletion still has
def _one_write_per_step(ops):
    # the kernel writes a plan's one-row steps as it writes several rows
    from htclip import algorithms

    new = _rewrite(algorithms, "_run_kernel", (
        "if q - p == 1:\n                    x[rows[p]] = vals[p]\n"
        "                elif p < q:",
        "if p < q:",
    ))
    return [(algorithms, "_run_kernel", new)]


def _no_row_words(ops):
    from htclip import algorithms

    _get(algorithms, "_ROW_WORDS")
    return [(algorithms, "_ROW_WORDS", {})]


def _no_values(ops):
    from htclip import algorithms

    _get(algorithms, "_values")
    return [(algorithms, "_values", lambda r: np.array(r, float))]


def _stacked_rows(ops):
    from htclip import algorithms

    new = _rewrite(algorithms, "_Events.__init__",
                   ("if all(o is first for o in oracles):", "if False:"))
    return [(algorithms._Events, "__init__", new)]


def _folded(name: str):
    def patch(ops):
        from htclip import noise

        _get(noise, name)
        return [(noise, name, noise._BLOCK)]
    return patch


VARIANTS = {}
for _name in ("NOISE_BUDGET", "_LEAST_ENTRIES", "_BLOCK", "_SLOTS"):
    VARIANTS[f"{_name}/4"] = (f"{_name} at 1/4", _scaled(_name, 0.25))
    VARIANTS[f"{_name}*4"] = (f"{_name} at 4x", _scaled(_name, 4))
VARIANTS["_SUB_CHUNK_ENTRIES/4"] = ("_SUB_CHUNK_ENTRIES at 1/4", _sub_chunk_entries(0.25))
VARIANTS["_SUB_CHUNK_ENTRIES*4"] = ("_SUB_CHUNK_ENTRIES at 4x", _sub_chunk_entries(4))
VARIANTS["stable_blocks/4"] = ("_stable_scratch counts 1.25 blocks a core", _stable_blocks(0.25))
VARIANTS["stable_blocks*4"] = ("_stable_scratch counts 20 blocks a core", _stable_blocks(4))
VARIANTS.update({
    "no_busy_core": ("run_trials does not count as a busy core", _no_busy_core),
    "unsplit_stable_draw": ("the kernel's stable draw in one block", _unsplit_stable_draw),
    "eta_columns": ("_Steps.at hands out (k, 1) eta columns", _eta_columns),
    "no_underflow_hook": ("dense hard steps subtract g0 from every row", _no_underflow_hook),
    "inline_draws": ("the Monte Carlo chunks drawn inline, not ahead", _inline_draws),
    "plain_row_norms": ("row_norms without its short-row fork", _plain_row_norms),
    "threads_1": ("rate-stable-ball at --threads 1", _one_thread),
    "one_write_per_step": ("the plan's one-row writes take the many-row write "
                           "(before its deletion)", _one_write_per_step),
    "no_row_words": ("_rows_differ by ne.any(1) (before its deletion)", _no_row_words),
    "no_values": ("_values as np.array(r, float) (before its deletion)", _no_values),
    "stacked_rows": ("_Events stacks M and y per row (before the fork's deletion)", _stacked_rows),
    "split_min_folded": ("_SPLIT_MIN = _BLOCK (before its deletion)", _folded("_SPLIT_MIN")),
    "skip_block_folded": ("_SKIP_BLOCK = _BLOCK (before its deletion)", _folded("_SKIP_BLOCK")),
})


@contextlib.contextmanager
def patched(patches):
    """Set each (obj, attr, value) of patches, and restore them after."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, value in patches:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def make_ops(workloads, seed: int, workdir: str) -> dict:
    """One object per op, each with op(), check() and digest()."""
    ops = {}
    for name in WORKLOADS:
        path = os.path.join(workdir, name)
        os.makedirs(path)
        ops[name] = workloads.setup(name, seed, path)
    for name, config in AC_CONFIGS.items():
        path = os.path.join(workdir, name)
        os.makedirs(path)
        ops[name] = workloads.RateExperiment(config, AC_THREADS, path)
    return ops


def time_op(obj, repeats: int) -> tuple:
    """(median op seconds over repeats ops, problems check() found)."""
    times, problems = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = obj.op()
        times.append(time.perf_counter() - t0)
        problems += obj.check(result)
    return statistics.median(times), problems


def measure(name, base, variant, patches, names, rounds, hard_repeats) -> dict:
    """Each op of names timed on both sides, alternating, for rounds rounds."""
    times = {op: {"base": [], "variant": []} for op in names}
    problems = {op: [] for op in names}
    for r in range(rounds):
        sides = [("base", base, []), ("variant", variant, patches)]
        if r % 2:
            sides.reverse()
        for op in names:
            repeats = hard_repeats if op == "rate-hard-cvx" else 1
            for side, ops, patch in sides:
                with patched(patch):
                    t, found = time_op(ops[op], repeats)
                times[op][side].append(t)
                problems[op] += [f"{side}: {p}" for p in found]
        print(f"{name} round {r + 1}/{rounds}", file=sys.stderr, flush=True)
    out = {}
    for op in names:
        b, v = times[op]["base"], times[op]["variant"]
        out[op] = {
            "base_s": statistics.median(b),
            "variant_s": statistics.median(v),
            "ratio": statistics.median(v) / statistics.median(b),
            "variant_slower_rounds": sum(x > y for x, y in zip(v, b)),
            "base": b,
            "variant": v,
            "digest_equal": base[op].digest() == variant[op].digest(),
            "problems": sorted(set(problems[op])),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="JSON file to write the results into")
    ap.add_argument("--key", default="knobs", help="key of the results in --out")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--hard-repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--variants", nargs="*", default=list(VARIANTS))
    ap.add_argument("--ops", nargs="*", default=list(OPS), choices=OPS)
    ap.add_argument("--src", default=os.path.join(HEAD, "src"))
    ap.add_argument("--list", action="store_true", help="print the variants and exit")
    args = ap.parse_args(argv)
    if args.list:
        for name, (what, _) in VARIANTS.items():
            print(f"{name:24} {what}")
        return 0
    if not args.out:
        ap.error("--out is required")
    unknown = set(args.variants) - set(VARIANTS)
    if unknown:
        ap.error(f"unknown variants: {sorted(unknown)}")
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(HEAD, "perfbench")]
    import htclip
    import workloads

    report = {
        "src": os.path.abspath(args.src),
        "seed": args.seed,
        "rounds": args.rounds,
        "hard_repeats": args.hard_repeats,
        "ac_threads": AC_THREADS,
        "machine": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "htclip": htclip.__version__,
        },
        "variants": {},
        "absent": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        base = make_ops(workloads, args.seed, os.path.join(tmp, "base"))
        for name in args.variants:
            what, patch = VARIANTS[name]
            variant = make_ops(workloads, args.seed, os.path.join(tmp, name))
            try:
                patches = patch(variant)
            except Absent as missing:
                report["absent"][name] = f"{what}: no {missing}"
                print(f"{name}: absent ({missing})", file=sys.stderr, flush=True)
                continue
            result = measure(name, base, variant, patches, args.ops, args.rounds,
                             args.hard_repeats)
            report["variants"][name] = {"what": what, "ops": result}
            for op, r in result.items():
                flag = "" if r["digest_equal"] and not r["problems"] else "  BYTES DIFFER"
                print(f"  {op:17} {r['base_s']:.4f} -> {r['variant_s']:.4f} s "
                      f"({r['ratio']:.3f}x, slower {r['variant_slower_rounds']}"
                      f"/{args.rounds}){flag}", file=sys.stderr, flush=True)
            for obj in variant.values():
                obj.close()
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            record = json.load(fh)
    record[args.key] = report
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
