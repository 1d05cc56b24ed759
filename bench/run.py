"""Benchmark entry point: one seeded run of one workload.

    python3 bench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload process is a fresh interpreter.  The untraced
run (``--trace 0``) reports the end-to-end metrics; the traced run
(``--trace 1``) runs a fixed number of tasks with span recording and
reports the per-layer metrics.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("series", "products", "trees", "cli")
PROBES = 10  # set-up and verify timings per run, spread over the window
# Tasks in one traced run: a fixed count, so span counts repeat exactly.
TRACE_TASKS = {"series": 160, "products": 6408, "trees": 2000, "cli": 40}
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "verify_s": "s",
}


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence span counts, repeat
    env.pop("COMPRELIE_FORMAT", None)
    return env


def worker(args, *extra):
    """Run a worker to completion; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    # its own process group, so a stuck worker is stopped with its children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def untraced(args):
    res = worker(args, "--probes", str(PROBES))
    setups = res["setup_s"]
    rss_kb = res["cli_rss_kb"] or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    verify, verify_ok = res["verify_s"], res["verify_ok"]

    metrics = {
        "ops_per_s": res["ops"] / res["busy_s"],
        "op_ms_p50": res["p50_s"] * 1000,
        "op_ms_p90": res["tail_s"] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
        "verify_s": statistics.fmean(verify),  # ten seeds, each once: a fixed suite
    }
    notes = [f"tail percentile p{res['tail_level'] * 100:g} over {res['ops']} ops",
             f"unscaled ops_per_s {res['raw']['ops_per_s']:.6g}, reference loop "
             f"{res['raw']['reference_s'] * 1000:.4g} ms (scaled to {res['raw']['nominal_s'] * 1000:.4g} ms)",
             f"verify exit codes ok: {verify_ok}"]
    return res, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes, verify_ok


def layer_unit(name: str) -> str:
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def traced(args):
    import spans

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        res = worker(args, "--trace-tasks", str(TRACE_TASKS[args.workload]),
                        "--span-dir", span_dir)
        layer, metas = spans.aggregate(res["span_files"])
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    imports = [m["import_s"] for m in metas if "import_s" in m]
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    metrics["traced_ops_per_s"] = (res["ops"] / res["busy_s"], "1/s")
    return res, metrics, [f"traced tasks: {res['tasks']}"], True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "comprelie" / "__init__.py").is_file():
        print(f"error: no comprelie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, metrics, notes, ok = (traced if args.trace else untraced)(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = res["ops"]
    problems = res["selftest_problems"]
    print(f"workload {args.workload}  seed {args.seed}  tasks {res['tasks']}  "
          f"ops {attempted}  failed {res['failed']}  "
          f"error_rate {res['failed'] / max(attempted, 1):.4f}")
    for reason, count in sorted(res["reasons"].items()):
        print(f"  failed x{count}: {reason}")
    for line in notes:
        print(f"  {line}")
    print(f"  self-test: {'ok' if not problems else '; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok and not problems,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
