"""pvckit benchmark: time to verdict on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-hard --seed 0 --seconds 38 --trace 0

One client in one process calls pvckit closed-loop: each call starts after the
previous one returns. Every answer is checked. With ``--trace 0`` the run
measures the end-to-end metrics with pvckit untouched; with ``--trace 1`` it
times a fixed prefix of the workload untraced once and traced twice, and
reports calls, self time and counts per pvckit function. The last line of
standard output is one JSON object; a results file stamped with the
environment goes to perfbench/results/. Exit status: 0 when every answer was
right, 1 when one was wrong, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
RESULTS = BENCH / "results"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
REF_EVERY_S = 0.02
REF_WINDOW = 9
TAIL_LADDER = (99, 90, 50)
TAIL_BEYOND = 10
# Blocks timed by a traced run: untraced once, then traced twice.
TRACE_BLOCKS = {"search-hard": 30, "gadget-pipeline": 4, "crosscheck-small": 800}


def give_up(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_pvckit():
    """Import pvckit from this checkout's src/, never from anywhere else."""
    if not (SRC / "pvckit" / "__init__.py").is_file():
        give_up("no pvckit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import pvckit
    if Path(pvckit.__file__).resolve().parent != (SRC / "pvckit").resolve():
        give_up("imported pvckit from %s, not %s" % (pvckit.__file__, SRC))


# ---------------------------------------------------------------------------
# Environment stamp.

def git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pvckit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "platform": platform.platform(), "recursion_limit": sys.getrecursionlimit(),
            "git_commit": git_commit(), "src_sha256": source_digest()}


# ---------------------------------------------------------------------------
# Set-up: build the workload and hold it against its stored reference.

def keys_digest(items):
    return hashlib.sha256(" ".join(it.key for it in items).encode()).hexdigest()


def load_reference(workload, seed, items, problems):
    """Fill in and check expected verdicts from refs/, when this seed has one."""
    path = REFS / ("%s-seed%d.json" % (workload, seed))
    if not path.is_file():
        return False
    ref = json.loads(path.read_text())
    if ref["keys_sha256"] != keys_digest(items):
        problems.append("generated instances differ from %s" % path.name)
        return True
    for it, mark in zip(items, ref["verdicts"]):
        expect = mark == "Y"
        if it.expect is None:
            it.expect = expect
        elif it.expect != expect:
            problems.append("%s %s: expected %s, reference says %s"
                            % (it.family, it.key, it.expect, expect))
    return True


def set_up(workload, seed, problems):
    """Build the workload at least SETUP_REPEATS times and for SETUP_MIN_S.

    Returns its blocks, the median set-up time and whether a stored
    reference was loaded.
    """
    import workloads
    times = []
    kept = None
    has_ref = False
    while (len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S) and len(times) < 100:
        t0 = time.perf_counter()
        blocks = workloads.BUILDERS[workload](seed)
        items = [it for block in blocks for it in block]
        has_ref = load_reference(workload, seed, items, problems if kept is None else [])
        times.append(time.perf_counter() - t0)
        if kept is None:
            kept = blocks
        elif [it.key for b in blocks for it in b] != [it.key for b in kept for it in b]:
            problems.append("the same seed generated different instances")
    return kept, statistics.median(times), has_ref


def run_probes(workload, problems):
    """Decide the workload's probe instances once each, untimed.

    A probe shows a known defect without putting a crash into the timed
    loop: a crash is reported here, a wrong verdict fails the run.
    Returns one line per probe.
    """
    import workloads
    lines = []
    for item in workloads.PROBES.get(workload, list)():
        try:
            results = [step() for _, step in item.steps]
        except Exception as exc:
            lines.append("probe %s %s: %s (known defect; outside the timed loop, "
                         "not in attempted or failed)" % (item.family, item.key,
                                                          type(exc).__name__))
            continue
        problem = item.check(results, item.expect)
        if problem is not None:
            problems.append("probe %s %s: %s" % (item.family, item.key, problem))
        lines.append("probe %s %s: %s" % (item.family, item.key,
                                          problem or "verdict right"))
    return lines


# ---------------------------------------------------------------------------
# The closed loop.

class Tally:
    """Outcomes of the executions so far, and the times of each instance.

    The loop decides every instance several times in a run. An instance's
    time to verdict is the median of its repeats: repeats are spread over the
    run, so a burst of load from other processes on a shared machine moves
    few of them. Every execution counts as an attempt; every failed one
    counts as a failure.

    With a ``reference`` (see reference.py) the tally also runs it at least
    every REF_EVERY_S and keeps each execution's times divided by the median
    of the last REF_WINDOW reference times: the same times in units of the
    machine's speed at that moment.
    """

    def __init__(self, reference=None):
        self.attempted = 0
        self.failures = Counter()
        self.wrong = []
        self.times = {}    # index -> per-step times of each execution that returned
        self.rel = {}      # index -> the same, in reference units
        self.spent = {}    # index -> times until a failure
        self.reference = reference
        self.ref_times = []
        self.ref_at = -math.inf

    @property
    def failed(self):
        return sum(self.failures.values())

    def run(self, index, item):
        clock = time.perf_counter
        if self.reference is not None and clock() - self.ref_at >= REF_EVERY_S:
            t0 = clock()
            self.reference()
            self.ref_at = clock()
            self.ref_times.append(self.ref_at - t0)
        self.attempted += 1
        results = []
        times = []
        start = clock()
        try:
            for _, step in item.steps:
                t0 = clock()
                results.append(step())
                times.append(clock() - t0)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            self.failures[type(exc).__name__] += 1
            self.spent.setdefault(index, []).append(clock() - start)
            return
        problem = item.check(results, item.expect)
        if problem is not None:
            self.failures["wrong"] += 1
            self.wrong.append("%s %s: %s" % (item.family, item.key, problem))
            return
        self.times.setdefault(index, []).append(times)
        if self.reference is not None:
            unit = statistics.median(self.ref_times[-REF_WINDOW:])
            self.rel.setdefault(index, []).append([t / unit for t in times])

    def samples(self, items, rel=False):
        """Verdict times: one per step of per-step items, one per pipeline otherwise."""
        out = []
        for index, runs in (self.rel if rel else self.times).items():
            if items[index].per_step:
                out.extend(statistics.median(step) for step in zip(*runs))
            else:
                out.append(statistics.median(sum(r) for r in runs))
        return out

    def repeats(self):
        return statistics.median(len(runs) for runs in self.times.values())

    def busy(self, rel=False):
        """Time to decide each instance once, at its median.

        In seconds, failures included; or in reference units, which exist
        for executions that returned only.
        """
        busy = sum(statistics.median(sum(r) for r in runs)
                   for runs in (self.rel if rel else self.times).values())
        if not rel:
            busy += sum(statistics.median(t) for i, t in self.spent.items()
                        if i not in self.times)
        return busy


def run_blocks(blocks, tally, seconds=None):
    """Run whole blocks: all of them once, or cycling until ``seconds`` have passed.

    On a cycling run, pass p over the blocks decides an item only when p is a
    multiple of the item's ``every``. Returns the elapsed time and the number
    of blocks run.
    """
    offsets = [0]
    for block in blocks:
        offsets.append(offsets[-1] + len(block))
    t0 = time.perf_counter()
    i = 0
    while True:
        b = i % len(blocks)
        p = i // len(blocks)
        for j, item in enumerate(blocks[b]):
            if p % item.every == 0:
                tally.run(offsets[b] + j, item)
        i += 1
        elapsed = time.perf_counter() - t0
        if (seconds is None and i == len(blocks)) or (seconds is not None
                                                      and elapsed >= seconds):
            return elapsed, i


def tail(samples):
    """Highest ladder percentile with at least TAIL_BEYOND samples above its rank."""
    s = sorted(samples)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * len(s)))
        if len(s) - rank >= TAIL_BEYOND:
            return q, s[rank - 1], len(s) - rank
    return 100, s[-1], 0


# ---------------------------------------------------------------------------
# Runs.

def untraced_run(blocks, seconds, setup_s):
    """Time the workload; return the tally, the metrics, notes and details.

    The gated metrics are in reference units (``*_ref``, ``decided_per_kref``)
    with set-up time and memory; the same times in ms and 1/s are printed
    beside them.
    """
    import reference
    import tracing
    items = [it for block in blocks for it in block]
    tracing.assert_unpatched()
    tally = Tally(reference.make_reference())
    elapsed, ran = run_blocks(blocks, tally, seconds)
    tracing.assert_unpatched()
    ms = [t * 1000.0 for t in tally.samples(items)]
    rel = tally.samples(items, rel=True)
    if not ms:
        give_up("no call returned a verdict")
    q, tail_ms, beyond = tail(ms)
    ref_ms = statistics.median(tally.ref_times) * 1000.0
    metrics = {
        "verdict_ref.p50": (statistics.median(rel), "ref"),
        "verdict_ref.tail": (tail(rel)[1], "ref"),
        "decided_per_kref": (1000.0 * len(tally.rel) / tally.busy(rel=True), "1/kref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    printed = {
        "verdict_ms.p50": (statistics.median(ms), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "decided_per_s": (len(tally.times) / tally.busy(), "1/s"),
        "ref_ms": (ref_ms, "ms"),
    }
    notes = ["%d instances in %d blocks; %.2f passes over them in %.3f s, %d executions"
             % (len(items), len(blocks), ran / len(blocks), elapsed, tally.attempted),
             "verdict calls: %d distinct samples, each the median of its repeats "
             "(median %g repeats); tail is p%d with %d samples beyond it"
             % (len(ms), tally.repeats(), q, beyond),
             "reference operation: %d runs, median %.4g ms (1 ref)"
             % (len(tally.ref_times), ref_ms),
             "wall-clock rate, repeats and failures included: %.4g executions/s"
             % (tally.attempted / elapsed)]
    return tally, metrics, printed, notes, {"tail_percentile": q, "samples": len(ms),
                                            "elapsed_s": elapsed,
                                            "passes": ran / len(blocks)}


def traced_run(workload, seed, blocks, problems):
    """Untraced and traced passes over a fixed prefix, alternating, twice each."""
    import tracing
    prefix = blocks[:TRACE_BLOCKS[workload]]
    prefix_sha256 = keys_digest([it for block in prefix for it in block])
    tally = Tally()
    plain = []
    passes = []
    for _ in range(2):
        tracing.assert_unpatched()
        plain.append(run_blocks(prefix, tally)[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            elapsed = run_blocks(prefix, tally)[0]
        finally:
            tracer.uninstall()
        tracing.assert_unpatched()
        passes.append((elapsed, tracer.spans, tracing.summarize(tracer.spans)))
    first, second = passes[0][2], passes[1][2]
    for name in tracing.DETERMINISTIC:
        if first[name][0] != second[name][0]:
            problems.append("%s differs between two traced passes: %s vs %s"
                            % (name, first[name][0], second[name][0]))
    previous = RESULTS / ("%s-seed%d-trace1.json" % (workload, seed))
    if previous.is_file():
        old = json.loads(previous.read_text())
        if (old["stamp"]["src_sha256"], old["details"].get("prefix_sha256")) == (
                source_digest(), prefix_sha256):
            for name in tracing.DETERMINISTIC:
                if old["layers"][name]["value"] != first[name][0]:
                    problems.append("%s differs from the previous run at this seed: "
                                    "%s vs %s" % (name, first[name][0],
                                                  old["layers"][name]["value"]))
    # Self times are the lesser of the two traced passes.
    layers = {name: (min(value, second[name][0]) if unit == "s" else value, unit)
              for name, (value, unit) in first.items()}
    overhead = min(p[0] for p in passes) / min(plain) - 1.0
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    notes = ["traced prefix: %d blocks; untraced %.3f s and %.3f s, traced %.3f s and %.3f s"
             % (len(prefix), plain[0], plain[1], passes[0][0], passes[1][0]),
             "tracing overhead: %+.1f%% (least traced pass over least untraced pass)"
             % (100.0 * overhead)]
    return tally, layers, notes, {"prefix_sha256": prefix_sha256}, passes[0][1]


def write_spans(path, spans):
    with gzip.open(path, "wt") as fh:
        fh.write("id,name,start_s,end_s,parent,count\n")
        t0 = spans[0][2] if spans else 0.0
        for sid, name, start, end, parent, value in sorted(spans):
            fh.write("%d,%s,%.9f,%.9f,%d,%s\n" % (sid, name, start - t0, end - t0, parent,
                                                   "" if value is None else value))


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["search-hard", "gadget-pipeline", "crosscheck-small"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    load_pvckit()
    import tracing

    problems = []
    blocks, setup_s, has_ref = set_up(args.workload, args.seed, problems)
    if args.trace:
        tally, metrics, notes, extra, spans = traced_run(args.workload, args.seed, blocks,
                                                         problems)
        printed = {}
    else:
        tally, metrics, printed, notes, extra = untraced_run(blocks, args.seconds,
                                                             setup_s)
        notes.extend(run_probes(args.workload, problems))
        spans = None
    problems.extend(tally.wrong)
    correct = not problems

    print("workload=%s seed=%d trace=%d reference=%s"
          % (args.workload, args.seed, args.trace, "stored" if has_ref else "none"))
    for line in notes:
        print(line)
    print("failed_ratio = %d/%d = %.4f %s" % (tally.failed, tally.attempted,
                                             tally.failed / tally.attempted,
                                             dict(tally.failures) or ""))
    for name, (value, unit) in sorted({**metrics, **printed}.items()):
        print("%-44s %.6g %s" % (name, value, unit))
    for problem in problems:
        print("WRONG: %s" % problem)

    st = stamp()
    wanted = tracing.JSON_LAYERS if args.trace else None
    reported = {name: {"value": value, "unit": unit} for name, (value, unit)
                in metrics.items() if wanted is None or name in wanted}
    RESULTS.mkdir(exist_ok=True)
    base = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {"stamp": st, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "failures": dict(tally.failures),
              "problems": problems, "notes": notes, "details": extra,
              ("layers" if args.trace else "metrics"):
                  {name: {"value": v, "unit": u} for name, (v, u)
                   in {**metrics, **printed}.items()}}
    (RESULTS / (base + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        write_spans(RESULTS / (base + "-spans.csv.gz"), spans)
    print("stamp: %s" % json.dumps(st, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
