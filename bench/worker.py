"""One run of one workload, in a fresh interpreter started by run.py.

Set-up is the import of comprelie and the construction of the workload's
maps and contexts; the process CPU time it has used by then is printed as
``ready_cpu_s``.  Then the closed loop runs a fixed number of tasks from
the seeded stream, timing each op in CPU time, and times a fixed
reference loop between tasks to follow the machine's speed.  The checks
and the self-tests run after the loop.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import random
import statistics
import sys
from array import array
from fractions import Fraction
from time import process_time

import workloads  # imports comprelie: part of set-up
from workloads import cpu_clock

# The reference loop's CPU time at the machine speed the reported times
# are scaled to: about the middle of its range (0.95-1.9 ms) on the
# 2-vCPU shared host the benchmark was tuned on, CPython 3.11.7.
REFERENCE_S = 0.0015
REFERENCE_EVERY_S = 0.1  # op CPU time between two reference timings
REFERENCE_WINDOW = 5  # timings on each side of an op that set its scale


class Done:
    """A finished task.  A task key's first run keeps its outputs for the
    check; the program is deterministic, so a repeat run must give the
    same outputs and is only compared with the first."""

    __slots__ = ("kind", "key", "task", "outs", "failure", "repeats", "differs")

    def __init__(self, task, outs, failure):
        self.kind, self.key, self.task = task.kind, task.key, task
        self.outs, self.failure = outs, failure
        self.repeats = 0  # later runs with equal outputs
        self.differs = []  # output indices, one entry per differing repeat


def reference(keys):
    """Fixed pure-Python work of the library's kind (tuple keys, dict
    updates, Fraction sums) that uses nothing of the library.  Its keys
    are drawn from a few MB of tuples so that, like the library with its
    caches, it feels the state of the shared memory caches and not only
    the speed of the core."""
    d, n, hits = {}, len(keys), 0
    for i in range(300):
        k = keys[i * 7919 % n]
        d[k] = d.get(k, 0) + Fraction(i % 9 + 1, i % 4 + 1)
        hits += keys[i * 104729 % n] in d
    return sum(d.values()), hits


class Speed:
    """Reference-loop timings taken between tasks, each at an op index.

    The host's speed changes by a quarter and more from one run to the
    next, and much less within a second.  An op's CPU time is scaled by
    ``REFERENCE_S`` over the median of the reference timings around it,
    which reports it at one fixed machine speed.
    """

    def __init__(self):
        self.at, self.took = array("q"), array("d")
        self.keys = [(i % 97, i % 89, i) for i in range(40000)]  # about 4 MB

    def sample(self, at: int) -> None:
        t0 = cpu_clock()
        reference(self.keys)
        self.at.append(at)
        self.took.append(cpu_clock() - t0)

    def scales(self) -> list[float]:
        """The scale of each timing's neighbourhood, by timing index."""
        w, took = REFERENCE_WINDOW, self.took
        return [REFERENCE_S / statistics.median(took[max(0, k - w):k + w + 1])
                for k in range(len(took))]

    def scale_at(self, ats, scales) -> list[float]:
        """Scales for a list of op indices."""
        return [scales[max(0, bisect.bisect_right(self.at, a) - 1)] for a in ats]


def run_loop(tasks, n_tasks, speed, probe=None, n_probes=0):
    """Run ``n_tasks`` whole tasks, timing the reference loop before a
    task whenever ``REFERENCE_EVERY_S`` of op time has passed.  ``probe``
    runs between tasks, spread evenly over the run, ``n_probes`` times in
    all, and is given the op index.  Returns the finished tasks and the op
    times."""
    done, first, latencies = [], {}, array("d")
    probes = 0
    busy = next_ref = 0.0
    for i, task in zip(range(n_tasks), tasks):
        if busy >= next_ref:
            speed.sample(len(latencies))
            next_ref = busy + REFERENCE_EVERY_S
        while probes < n_probes and i >= probes * n_tasks / n_probes:
            probe(len(latencies))
            probes += 1
        outs, failure = [], None
        for _, fn in task.ops:
            t0 = cpu_clock()
            try:
                out = fn(outs)
            except Exception as exc:  # an op that raises is a failed op
                failure = exc
            latencies.append(cpu_clock() - t0)
            busy += latencies[-1]
            if failure is not None:
                break
            outs.append(out)
        prev = first.get(task.key) if failure is None else None
        if prev is None:
            d = Done(task, outs, failure)
            done.append(d)
            if failure is None:
                first[task.key] = d
        else:
            differs = [j for j, (a, b) in enumerate(zip(outs, prev.outs)) if a != b]
            if differs:
                prev.differs.extend(differs)
            else:
                prev.repeats += 1
    return done, latencies


def task_count(cls, seconds: float) -> int:
    """Whole cycles of the workload's task mix that took about ``seconds``
    of CPU time at the seed commit.  The count depends on nothing else,
    so a seed always gives the same ops, and the same failures."""
    cycle = len(cls.CYCLE)
    return max(1, round(seconds * cls.TASKS_PER_S / cycle)) * cycle


def run_checks(done):
    """Failed ops (raised or wrong) and a count per reason."""
    failed, reasons = 0, {}

    def count(msg, n):
        nonlocal failed
        failed += n
        key = f"{d.kind}: {msg.splitlines()[0][:120]}"
        reasons[key] = reasons.get(key, 0) + n

    for d in done:
        if d.failure is not None:
            count(f"{type(d.failure).__name__}: {d.failure}", 1)
            continue
        try:
            bad = dict(d.task.check(d.outs))
        except Exception as exc:  # the library raised inside a check
            bad = {len(d.outs) - 1: f"check raised {type(exc).__name__}: {exc}"}
        for msg in bad.values():
            count(msg, 1 + d.repeats)
        if d.differs:
            count("output differs from the first run of the same task", len(d.differs))
    return failed, reasons


def summary(latencies):
    """Op count, busy time, median and tail latency of a run.

    The tail is p90, or the highest percentile that still has ten
    samples above it when there are fewer than 100 ops.
    """
    ranked = sorted(latencies)
    n = len(ranked)
    level = max(0.5, min(0.9, 1 - 10 / n))
    return {"ops": n, "busy_s": sum(ranked), "p50_s": statistics.median(ranked),
            "tail_level": level, "tail_s": ranked[max(0, math.ceil(level * n) - 1)]}


def self_test(workload_cls, done, name, seed):
    """Problems found in the generator and the checks; empty when sound."""
    problems = []
    n = 2 * len(workload_cls.CYCLE)

    def keys(s):
        stream = workload_cls().tasks(random.Random(f"{name}:{s}"))
        return [next(stream).key for _ in range(n)]

    first = keys(seed)
    if keys(seed) != first:
        problems.append("the same seed gave a different op stream")
    if keys(seed + 1) == first:
        problems.append("a different seed gave the same op stream")

    # Each check must reject its task's outputs with one of them perturbed.
    # A kind whose every task failed has no passing outputs to perturb; its
    # failures already show in the failed count.
    tested = set()
    for d in done:
        task, outs = d.task, d.outs
        if d.failure is not None or d.kind in tested or not _passes(task, outs):
            continue
        tested.add(task.kind)
        for i in range(len(outs)):
            perturbed = outs[:i] + [workloads.perturb(outs[i])] + outs[i + 1:]
            if _passes(task, perturbed):
                problems.append(f"{task.kind}: a perturbed op {i} output passed its check")
    return problems


def _passes(task, outs) -> bool:
    try:
        return not task.check(outs)
    except Exception:  # a check that raises counts the task as failed
        return False


class Probes:
    """Set-up and ``comprelie verify`` CPU times of fresh processes, taken
    between tasks so that they sample the whole run."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.at, self.setup_s, self.verify_s, self.verify_ok = [], [], [], True

    def __call__(self, at):
        self.at.append(at)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", self.workload,
               "--seed", str(self.seed), "--setup-only"]
        code, out, _ = workloads.run_child(cmd)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        self.setup_s.append(json.loads(out)["ready_cpu_s"])
        # The cost of verify depends on its seed, so every run verifies
        # with the same seeds 1, 2, ...; the cli workload draws its verify
        # seeds from the run's seed.
        seed = 1 + len(self.verify_s)
        cmd = [sys.executable, "-m", "comprelie.cli", "verify", "--seed", str(seed)]
        code, out, cpu_s = workloads.run_child(cmd)
        self.verify_s.append(cpu_s)
        lines = out.splitlines()
        self.verify_ok &= code == 0 and bool(lines) and all(
            line.startswith("pass  ") for line in lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-tasks", type=int, default=0)
    ap.add_argument("--span-dir")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probes", type=int, default=0)
    args = ap.parse_args(argv)

    # One CPU for this process and the command processes it starts, so
    # that the reference loop times the CPU that the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # --- set-up: the import of comprelie (above) and the workload's contexts
    cls = workloads.WORKLOADS[args.workload]
    here = os.path.dirname(os.path.abspath(__file__))
    if cls is workloads.Cli and args.trace_tasks:
        def make():
            return cls(traced_child=os.path.join(here, "cli_traced.py"), span_dir=args.span_dir)
    else:
        make = cls
    wl = make()
    ready_cpu_s = process_time()  # interpreter start included
    if args.setup_only:
        print(json.dumps({"ready_cpu_s": ready_cpu_s}))
        return 0

    rec = None
    if args.trace_tasks:
        import spans

        rec = spans.install()
        rec.active = True
    probes = Probes(args.workload, args.seed)
    speed = Speed()
    stream = wl.tasks(random.Random(f"{args.workload}:{args.seed}"))
    n_tasks = args.trace_tasks or task_count(cls, args.seconds)
    done, latencies = run_loop(stream, n_tasks, speed, probes, args.probes)
    if isinstance(wl, workloads.Cli):
        wl.close()  # stop its launcher
    span_files = []
    if rec is not None:
        rec.active = False
        path = os.path.join(args.span_dir, "worker.spans")
        rec.write(path)
        span_files.append(path)
    span_files += getattr(wl, "span_files", [])

    failed, reasons = run_checks(done)
    problems = self_test(cls, done, args.workload, args.seed)
    scales = speed.scales()
    op_scale = speed.scale_at(range(len(latencies)), scales)
    probe_scale = speed.scale_at(probes.at, scales)
    scaled = [t * k for t, k in zip(latencies, op_scale)]
    print(json.dumps({
        "tasks": n_tasks,
        "distinct_tasks": len(done),
        **summary(scaled),
        "raw": {"ops_per_s": len(latencies) / sum(latencies),
                "reference_s": statistics.median(speed.took), "nominal_s": REFERENCE_S},
        "failed": failed,
        "reasons": reasons,
        "selftest_problems": problems,
        "span_files": span_files,
        "cli_rss_kb": getattr(wl, "max_rss_kb", 0),
        "setup_s": [ready_cpu_s * scales[0]] + [
            t * k for t, k in zip(probes.setup_s, probe_scale)],
        "verify_s": [t * k for t, k in zip(probes.verify_s, probe_scale)],
        "verify_ok": probes.verify_ok,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
