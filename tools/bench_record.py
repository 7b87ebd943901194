"""Record benchmark runs as a BENCH_<n>.json file.

Runs perfbench/run.py (untraced) for each workload, --pairs times in the
checkout under test and, with --base, as many times in a base checkout,
in pairs that alternate which side runs first, so that drift in the
machine's speed hits both alike.  After each run it reads the record
perfbench/run.py left in that checkout's .perfbench/results/ and keeps
its end-to-end metrics, and verify-clip's per-half throughputs
(exact_states_per_s, mc_samples_per_s) from the record's details.
With --pairs 0 it runs nothing and reads the records already there, one
sample per workload.

    python tools/bench_record.py --out BENCH_12.json --base ../parent \\
        --pairs 10 --seconds 12 --seed 31 [--workloads rate-stable-ball]

The file holds, per workload and checkout, the median, q1 and q3 of each
end-to-end metric over the runs, with the seed and the pair count, and
how many pairs the head won on each metric; the machine's fingerprint
(cores, CPU model, Python and numpy versions, and numpy's CPU dispatch:
the SIMD targets it found and did not find, and the target each float64
sin, cos, tan and power loop runs); calibration times, the median wall
times of np.sin and of np.tan over 1M entries, taken before and after
the runs, so that rates measured at different times can be compared in
units of them (numpy sends float64 sin to libm, and tan, which stable
draws ride on with power, to a SIMD loop where the CPU has one); and
whether PYTHONDONTWRITEBYTECODE was set, which makes every
worker compile the sources on import, so that set-up time and peak RSS
then move with the length of src/, which it records for each checkout
(the lines of src/htclip/*.py, as wc -l counts them, and apart from them
the code lines, those that are not docstring, comment or blank, and the
docstring lines).  For each workload it also runs one op in a fresh
process in each checkout, at the recorded seed and at each of
DIGEST_SEEDS (1 and 2), through that checkout's perfbench/workloads.py,
and records the sha256 digest of the op's checked outputs
(workloads.setup(...).digest()) by seed; "digests_differ" lists the
workloads and seeds whose digests differ between the checkouts, which it
also prints to stderr.  --stages adds a JSON file that
tools/kernel_stages.py printed in the head checkout, and --base-stages
one printed in the base.  With both, "ceiling" holds, for each fitted
case of the base's named after a workload, the base's ceiling (how many
times faster its stages would run without the kernel's fixed cost per
loop step and without seeding), the stage totals on each side and their
ratio, and the workload's work_per_s gain (head median over base
median), with the share of the ceiling's headroom that gain took:
(gain - 1) / (ceiling - 1).
numpy only; not part of the tests.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize

import numpy as np

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rate-hard-cvx", "rate-stable-ball", "verify-clip")
# metric -> whether higher is better, as BENCHMARK.json declares them
END_TO_END = {"setup_s": False, "work_per_s": True, "peak_rss_mb": False}
# seeds whose op digests every record holds, besides the run's own: the
# seeds at which the workloads' output bytes are pinned across changes
DIGEST_SEEDS = (1, 2)
# verify-clip's throughput of each half of an op (exact enumeration,
# Monte Carlo), which a run keeps in its record's details
PER_HALF = {"exact_states_per_s": True, "mc_samples_per_s": True}


def calibration_s(ufunc, repeats: int = 15) -> float:
    """Median wall time of ufunc over 1M float64 entries."""
    x = np.linspace(0.0, 100.0, 1 << 20)
    out = np.empty_like(x)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ufunc(x, out=out)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrations(when: str) -> dict:
    return {f"np_{f.__name__}_1M_s_{when}": calibration_s(f) for f in (np.sin, np.tan)}


def numpy_dispatch() -> dict:
    """numpy's CPU dispatch, as numpy.show_runtime reads it, and the
    target that each float64 loop of sin, cos, tan and power runs.  A
    loop's target is the build it dispatched to, not proof that it is
    vectorized: numpy 2.4's float64 sin and cos loops call libm per
    entry on any target."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    dispatch = list(getattr(umath, "__cpu_dispatch__", ()))
    targets = getattr(umath, "__cpu_targets_info__", {})
    return {
        "baseline": list(getattr(umath, "__cpu_baseline__", ())),
        "found": [f for f in dispatch if features.get(f)],
        "not_found": [f for f in dispatch if not features.get(f)],
        "float64_loops": {
            name: targets.get(name, {}).get(sig, {}).get("current")
            for name, sig in (("sin", "dd"), ("cos", "dd"), ("tan", "dd"), ("power", "ddd"))
        },
    }


def fingerprint() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_dispatch": numpy_dispatch(),
    }


def _sources(checkout: str) -> list:
    """The texts of the checkout's src/htclip/*.py files."""
    folder = os.path.join(checkout, "src", "htclip")
    names = sorted(n for n in os.listdir(folder) if n.endswith(".py"))
    out = []
    for name in names:
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            out.append(fh.read())
    return out


def src_lines(checkout: str) -> int:
    """Lines of the checkout's src/htclip/*.py files, summed."""
    return sum(text.count("\n") for text in _sources(checkout))


_PROSE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def _docstrings(text: str) -> set:
    """The lines of a Python source's module, class and function docstrings."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of a Python source that hold a token other than a comment,
    with the lines of module, class and function docstrings left out."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _PROSE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstrings(text))


def src_code_lines(checkout: str) -> int:
    """code_lines of the checkout's src/htclip/*.py files, summed."""
    return sum(code_lines(text) for text in _sources(checkout))


def src_doc_lines(checkout: str) -> int:
    """Docstring lines (the lines code_lines leaves out as docstrings) of
    the checkout's src/htclip/*.py files, summed."""
    return sum(len(_docstrings(text)) for text in _sources(checkout))


def record_path(checkout: str, workload: str, seed: int) -> str:
    return os.path.join(checkout, ".perfbench", "results", f"{workload}-seed{seed}-trace0.json")


def read_metrics(path: str) -> dict:
    with open(path) as fh:
        record = json.load(fh)
    result = record["result"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed"] = result["failed"]
    metrics.update((k, v) for k, v in record["details"].items() if k in PER_HALF)
    return metrics


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench/run.py run in checkout; its end-to-end metrics."""
    path = record_path(checkout, workload, seed)
    if os.path.exists(path):
        os.unlink(path)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return read_metrics(path)


# run in a checkout: set up one workload, run and check one op, and print
# the op's digest and the check's problems as JSON
_DIGEST = """
import json, sys, tempfile
sys.path[:0] = ["src", "perfbench"]
import workloads
name, seed = sys.argv[1], int(sys.argv[2])
with tempfile.TemporaryDirectory() as workdir:
    w = workloads.setup(name, seed, workdir)
    try:
        problems = w.check(w.op())
        print(json.dumps({"digest": w.digest(), "problems": problems}))
    finally:
        w.close()
"""


def op_digest(checkout: str, workload: str, seed: int) -> dict:
    """The digest of one op of workload at seed in checkout, and the
    problems its check found, from a fresh process."""
    cmd = [sys.executable, "-c", _DIGEST, workload, str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"the {workload} digest in {checkout} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def compared(samples: list) -> dict:
    """The metrics of samples to compare, each with whether higher is
    better: the end-to-end ones, and the per-half ones if recorded."""
    return {**END_TO_END, **{k: v for k, v in PER_HALF.items() if k in samples[0]}}


def summary(samples: list) -> dict:
    out = {}
    for name in (*compared(samples), "failed"):
        values = [s[name] for s in samples]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = med = q3 = values[0]
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def ceilings(base: dict, head: dict, workloads: dict) -> list:
    """The base's ceiling for each of its fitted cases named after a
    workload, against the stage totals and the workload's gain."""
    fits = {(f["problem"], f["d"]): f["ceiling"] for f in head.get("fits", [])}
    out = []
    for f in base.get("fits", []):
        if f["problem"] not in WORKLOADS or (f["problem"], f["d"]) not in fits:
            continue
        was, now = f["ceiling"], fits[f["problem"], f["d"]]
        entry = {
            "workload": f["problem"],
            "d": f["d"],
            "width": was["width"],
            "ceiling": was["ceiling"],
            "stage_total_ms": {"base": was["total_ms"], "head": now["total_ms"]},
            "stage_gain": round(was["total_ms"] / now["total_ms"], 3),
        }
        sides = workloads.get(f["problem"], {})
        if "base" in sides:
            gain = sides["head"]["work_per_s"]["median"] / sides["base"]["work_per_s"]["median"]
            entry["work_per_s_gain"] = round(gain, 3)
            entry["share_of_ceiling"] = round((gain - 1.0) / (was["ceiling"] - 1.0), 3)
        out.append(entry)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--head", default=HEAD, help="checkout under test (this one)")
    ap.add_argument("--base", help="checkout to compare with, run in turn with --head")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--stages", help="a JSON file printed by tools/kernel_stages.py")
    ap.add_argument("--base-stages", help="the same, printed in the base checkout")
    ap.add_argument("--note", default="", help="free text kept in the file")
    args = ap.parse_args(argv)
    if args.pairs < 0 or not args.seconds > 0:
        ap.error("--pairs must be >= 0 and --seconds positive")
    checkouts = {"head": os.path.abspath(args.head)}
    if args.base:
        checkouts = {"base": os.path.abspath(args.base), **checkouts}

    report = {
        "machine": fingerprint(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "calibration": calibrations("before"),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "note": args.note,
        "src_lines": {label: src_lines(checkout) for label, checkout in checkouts.items()},
        "src_code_lines": {
            label: src_code_lines(checkout) for label, checkout in checkouts.items()
        },
        "src_doc_lines": {
            label: src_doc_lines(checkout) for label, checkout in checkouts.items()
        },
        "workloads": {},
    }
    for workload in args.workloads:
        samples = {label: [] for label in checkouts}
        if args.pairs == 0:
            for label, checkout in checkouts.items():
                samples[label].append(read_metrics(record_path(checkout, workload, args.seed)))
        for i in range(args.pairs):
            # alternate which side of a pair runs first
            for label, checkout in list(checkouts.items())[:: 1 - 2 * (i % 2)]:
                samples[label].append(run_once(checkout, workload, args.seed, args.seconds))
        entry = {label: summary(runs) for label, runs in samples.items()}
        entry["samples"] = samples
        if "base" in samples and args.pairs:
            entry["head_wins"] = {
                name: sum(
                    (h[name] > b[name]) if higher else (h[name] < b[name])
                    for b, h in zip(samples["base"], samples["head"])
                )
                for name, higher in compared(samples["head"]).items()
            }
        entry["digest"] = {
            str(seed): {
                label: op_digest(checkout, workload, seed)
                for label, checkout in checkouts.items()
            }
            for seed in sorted({args.seed, *DIGEST_SEEDS})
        }
        report["workloads"][workload] = entry
    report["digests_differ"] = [
        f"{name} (seed {seed})" for name, entry in report["workloads"].items()
        for seed, sides in entry["digest"].items()
        if len({d["digest"] for d in sides.values()}) > 1
    ]
    if report["digests_differ"]:
        print("digests differ: " + ", ".join(report["digests_differ"]), file=sys.stderr)
    report["calibration"].update(calibrations("after"))
    for key, path in (("kernel_stages", args.stages), ("kernel_stages_base", args.base_stages)):
        if path:
            with open(path) as fh:
                report[key] = json.load(fh)
    if args.stages and args.base_stages:
        report["ceiling"] = ceilings(
            report["kernel_stages_base"], report["kernel_stages"], report["workloads"]
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
