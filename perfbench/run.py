"""End-to-end and per-layer benchmark of `classify`.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each run draws its instances from
perfbench/pool.json by --seed, drives the public library path
model_from_json -> validate -> classify -> to_json in worker processes
(perfbench/worker.py), one call at a time, checks every report and prints
one metric per line, then a JSON summary as the last line of stdout.

A run is a fixed number of passes.  A pass takes one instance from every
slot of the workload.  The number of passes is --seconds divided by the
workload's nominal pass time in WORKLOADS, rounded, so a run does the same
work, with the same mix and sample count, on every commit.  With
--trace 0 the end-to-end metrics are measured with no instrumentation.
With --trace 1 every pass runs twice on the same instances, untraced and
then traced, and the run reports per-layer self time, work counts and
shares from the traced copies, plus the tracing overhead as the difference
of the two.

Before the timed part a separate worker runs the acceptance suite's truth
table as a gate, and the compiled-versus-pure kernel sub-report when the
compiled kernel is importable.  The full record, including every instance
(curve JSON, p, S, T) in pass order, is written to
perfbench/out/<workload>-seed<n>-trace<t>.json; `--replay FILE` runs the
passes of such a record again, exactly, on whatever code is checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
POOL = os.path.join(HERE, "pool.json")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from checks import judge, tamper_selftest, truth_table_mismatches  # noqa: E402

CALL_LIMIT_S = 30.0  # a call still running after this is killed and counted failed
START_LIMIT_S = 60.0
SETUP_PROBES = 9  # extra interpreters started only to time set-up

# name -> (one process for the whole run instead of one per call,
#          nominal pass time in s).  A run has round(--seconds / nominal)
# passes.  The nominal time is about the pass wall time, except for sweep,
# whose pass takes about 10.5 s: at 25 s a sweep run has three passes, so
# that each field sees 9 curves.
WORKLOADS = {
    "oracle": (False, 7.0),
    "count": (False, 6.5),
    "points": (False, 6.5),
    "sweep": (True, 8.5),
}

END_TO_END = [
    ("setup_s", "s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MB"),
]

# layer -> the metrics reported for it from the traced passes
LAYER_METRICS = [
    ("jacobian.jacobian_group", ("self_s", "share", "calls", "skipped")),
    ("counting.affine_count", ("self_s", "share", "elements_per_s")),
    ("curve.count_points", ("self_s", "share", "elements", "recount_s", "recount_share",
                            "budget_exits")),
    ("gf.field_create", ("self_s", "share", "calls", "elements")),
    ("curve.closed_points", ("self_s", "share", "points")),
    ("gf.irreducibles", ("self_s", "share", "polys")),
    ("curve.validate", ("self_s", "share")),
    ("zeta.l_polynomial", ("self_s", "share")),
    ("ihara.ihara_sum_exceeds", ("self_s", "share")),
    ("classify", ("self_s", "share")),
    ("trace", ("total_s", "unattributed_s", "overhead_s")),
]

UNITS = {
    "self_s": "s", "recount_s": "s", "total_s": "s", "unattributed_s": "s", "overhead_s": "s",
    "share": "fraction", "recount_share": "fraction", "elements_per_s": "1/s",
}


# ---------------------------------------------------------------------------
# worker processes


class WorkerDied(Exception):
    pass


class Worker:
    """One worker.py process; set-up time is spawn until its ready line."""

    def __init__(self, *flags):
        env = dict(os.environ)
        env.pop("CURVECLASS_BUDGET", None)  # budget rows assume the default budget
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, *flags],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.hello = self.receive(START_LIMIT_S)
        self.setup_s = time.perf_counter() - t0
        # field -> largest genus classified over it: a later call over that
        # field and of no larger genus needs no extension field it lacks
        self.genus_by_field: dict[tuple, int] = {}

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def receive(self, timeout):
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            self.kill()
            raise TimeoutError from None
        if line is None:
            self.close()
            raise WorkerDied(f"worker exited with {self.proc.returncode}")
        return json.loads(line)

    def call(self, inst: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(_program_input(inst)) + "\n")
            self.proc.stdin.flush()
            return self.receive(CALL_LIMIT_S)
        except TimeoutError:
            return {"status": "timeout", "call_s": CALL_LIMIT_S,
                    "error": f"killed after {CALL_LIMIT_S:.0f} s"}
        except (WorkerDied, BrokenPipeError) as exc:
            self.kill()
            return {"status": "crash", "call_s": CALL_LIMIT_S, "error": str(exc)}

    def close(self):
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self.reader.join(timeout=10)

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=10)

    @property
    def alive(self):
        return self.proc.poll() is None


def _program_input(inst: dict) -> dict:
    """The part of an instance the program sees."""
    return {k: inst[k] for k in ("curve", "p", "S", "T")}


# ---------------------------------------------------------------------------
# instances


def make_pass(slots, seed: int, workload: str, k: int, count: int,
              one_process: bool) -> list[dict]:
    """Pass k of count: one candidate per slot, in an order drawn from the seed.

    A run of count passes uses the first count candidates of every slot (all
    of them, cyclically, when there are fewer), so runs of the same length
    measure the same instances whatever the seed; the seed decides which pass
    each one lands in and the order of the calls.
    """
    rng = random.Random(f"{workload}/{seed}/{k}")
    chosen = []
    for sl in slots:
        cands = sl["candidates"]
        used = min(count, len(cands))
        order = random.Random(f"{workload}/{seed}/{sl['name']}").sample(range(used), used)
        chosen.append(dict(cands[order[k % used]], slot=sl["name"], group=sl["group"]))
    if not one_process:
        rng.shuffle(chosen)
        return chosen
    # one process for the run: the curves of one field go together and in
    # slot order, as a sweep walks them, so the call that builds a field's
    # extensions is the same slot's whatever the seed
    groups: dict[str, list] = {}
    for inst in chosen:
        groups.setdefault(inst["group"], []).append(inst)
    names = sorted(groups)
    rng.shuffle(names)
    return [inst for name in names for inst in groups[name]]


def run_pass(insts, kept, trace: bool, setups, runs, pass_no) -> float:
    """Run one pass, appending (instance, result) to runs; returns the sum of call times.

    kept is None for a fresh process per call; otherwise it maps the trace
    flag to the worker kept across passes, which the caller closes.
    """
    for inst in insts:
        worker = kept.get(trace) if kept is not None else None
        if worker is None or not worker.alive:
            worker = Worker(*(("--trace",) if trace else ()))
            setups.append(worker.setup_s)
            if kept is not None:
                kept[trace] = worker
        field = (inst["curve"]["field"]["p"], inst["curve"]["field"].get("m", 1))
        warm = worker.genus_by_field.get(field, -1)
        worker.genus_by_field[field] = max(warm, inst["g"])
        res = worker.call(inst)
        res["warm"] = warm >= inst["g"]
        res["pass"], res["traced"], res["slot"] = pass_no, trace, inst["slot"]
        res["outcome"], res["problems"] = judge(inst, res)
        runs.append((inst, res))
        if kept is None:
            worker.close()
    return sum(res["call_s"] for _, res in runs[len(runs) - len(insts):])


# ---------------------------------------------------------------------------
# metrics


def end_to_end(calls, totals, setups):
    durs = sorted(c["call_s"] for c in calls)
    n = len(durs)
    # highest percentile that still has 10 calls beyond it (the maximum when
    # a run is too short to have one)
    idx = n - 11 if n > 10 else n - 1
    extra = {
        "call_tail_percentile": 100.0 * (idx + 1) / n,
        "calls": n,
        "passes": len(totals),
        "setup_samples": len(setups),
    }
    values = {
        "setup_s": statistics.median(setups),
        "call_p50_s": statistics.median(durs),
        "call_tail_s": durs[idx],
        "total_s": statistics.fmean(totals),
        "peak_rss_mb": max(c.get("rss_kb", 0) for c in calls) / 1024.0,
    }
    return values, extra


def per_layer(traced_calls, traced_totals, untraced_totals):
    npass = len(traced_totals)
    agg: dict[str, dict] = {}
    unattributed = 0.0
    for c in traced_calls:
        tr = c.get("trace")
        if not tr:
            continue
        unattributed += tr["root_self_s"]
        for name, st in tr["layers"].items():
            into = agg.setdefault(name, {})
            for key, val in st.items():
                into[key] = into.get(key, 0) + val
    traced_total = sum(traced_totals)
    values = {}
    for layer, metrics in LAYER_METRICS:
        st = agg.get(layer, {})
        for m in metrics:
            if layer == "trace":
                val = {"total_s": traced_total / npass,
                       "unattributed_s": unattributed / npass,
                       "overhead_s": (traced_total - sum(untraced_totals)) / npass}[m]
            elif m == "share":
                val = st.get("self_s", 0.0) / traced_total if traced_total else 0.0
            elif m == "elements_per_s":
                val = st.get("elements", 0) / st["self_s"] if st.get("self_s") else 0.0
            elif m == "recount_share":
                val = st.get("recount_s", 0.0) / st["incl_s"] if st.get("incl_s") else 0.0
            else:
                val = st.get(m, 0) / npass
            values[f"{layer}.{m}"] = val
    return values


def unit_of(name: str) -> str:
    for e2e, unit in END_TO_END:
        if name == e2e:
            return unit
    return UNITS.get(name.rsplit(".", 1)[1], "count")


# ---------------------------------------------------------------------------


def run_meta():
    """Truth-table gate and kernel sub-report, untimed, in their own worker."""
    w = Worker("--meta")
    try:
        meta = w.receive(CALL_LIMIT_S * 4)
    finally:
        w.close()
    mismatches = truth_table_mismatches(meta["gate_reports"])
    return w.hello, {"rows": len(meta["gate_reports"]), "mismatches": mismatches,
                     "ok": not mismatches}, meta["kernel"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", metavar="FILE",
                    help="run the passes recorded in a result file instead of drawing new ones")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "curveclass", "__init__.py")):
        print(f"error: no curveclass package under {SRC}", file=sys.stderr)
        return 2
    one_process, pass_s = WORKLOADS[args.workload]
    trace = bool(args.trace)

    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            passes = json.load(fh)["passes"]
    else:
        with open(POOL, encoding="utf-8") as fh:
            slots = json.load(fh)["workloads"][args.workload]["slots"]
        # a traced run spends the same time on half as many pass pairs, but
        # has at least two, so that a kept process has a warm traced pass
        count = max(1 + trace, round(args.seconds / pass_s / (2 if trace else 1)))
        passes = [make_pass(slots, args.seed, args.workload, k, count, one_process)
                  for k in range(count)]

    hello, gate, kernel = run_meta()
    setups = []
    for _ in range(SETUP_PROBES):
        w = Worker()
        setups.append(w.setup_s)
        w.close()

    runs: list[tuple[dict, dict]] = []
    untraced_totals, traced_totals = [], []
    kept = {} if one_process else None
    start = time.perf_counter()
    try:
        for k, insts in enumerate(passes):
            untraced_totals.append(run_pass(insts, kept, False, setups, runs, k))
            if trace:
                traced_totals.append(run_pass(insts, kept, True, setups, runs, k))
    finally:
        for w in (kept or {}).values():
            w.close()
    measured_s = time.perf_counter() - start

    calls = [res for _, res in runs]
    attempted = len(calls)
    failed = sum(1 for c in calls if c["outcome"] == "failed")
    budget = sum(1 for c in calls if c["outcome"] == "budget")
    answered = [(inst, res) for inst, res in runs if res["outcome"] == "ok"]
    selftest = {"ok": False, "reason": "no answered call to tamper with"}
    if answered:
        selftest = tamper_selftest(*answered[0])
    # the kernel sub-report, when it runs, must find the two kernels in agreement
    correct = failed == 0 and gate["ok"] and selftest["ok"] and kernel.get("agree", True)

    if trace:
        values = per_layer([c for c in calls if c["traced"]], traced_totals, untraced_totals)
        extra = {"calls": attempted, "traced_passes": len(traced_totals)}
    else:
        values, extra = end_to_end(calls, untraced_totals, setups)
    extra["failed_share"] = failed / attempted
    extra["budget_share"] = budget / attempted
    extra["warm_share"] = sum(1 for c in calls if c["warm"]) / attempted
    cases = sorted({c["report"]["case_tag"] for c in calls if c.get("report")})

    env = {"backend": hello["backend"], "python": hello["python"],
           "nproc": len(os.sched_getaffinity(0)), "kernel_report": kernel}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "replay": args.replay, "measured_s": measured_s,
        "env": env, "gate": gate, "selftest": selftest,
        "metrics": values, "extra": extra, "cases": cases,
        "passes": passes, "calls": calls,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {env['backend']}  python {env['python']}  nproc {env['nproc']}")
    print(f"truth-table gate: {gate['rows']} rows, "
          f"{'PASS' if gate['ok'] else 'FAIL ' + '; '.join(gate['mismatches'][:3])}")
    if "skipped" in kernel:
        print(f"kernel sub-report: skipped ({kernel['skipped']})")
    else:
        print(f"kernel sub-report: compiled {kernel['compiled_s'] * 1e3:.2f} ms, pure "
              f"{kernel['pure_s'] * 1e3:.2f} ms, {kernel['speedup']:.1f}x, "
              f"agree={kernel['agree']}")
    print(f"calls {attempted} in {len(passes)} passes over {measured_s:.1f} s; cases reached {cases}")
    for name, val in values.items():
        note = ""
        if name == "call_tail_s":
            note = f"  (p{extra['call_tail_percentile']:.1f} of {extra['calls']} calls)"
        elif name == "total_s":
            note = f"  (mean of {extra['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {extra['setup_samples']} interpreters)"
        print(f"{name:<40} {val:>14.6f} {unit_of(name)}{note}")
    print(f"{'failed_share':<40} {extra['failed_share']:>14.6f} fraction  ({failed} of {attempted})")
    print(f"{'budget_share':<40} {extra['budget_share']:>14.6f} fraction  ({budget} of {attempted})")
    print(f"{'warm_share':<40} {extra['warm_share']:>14.6f} fraction  "
          "(calls whose process had already classified a curve over the same field and genus)")
    for c in calls:
        if c["outcome"] == "failed":
            print(f"FAILED pass {c['pass']} slot {c['slot']}: {'; '.join(c['problems'])}")
    print(f"self-test (tampered verdict counted as failed): {'PASS' if selftest['ok'] else 'FAIL'}")
    print(f"record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit_of(name)} for name, val in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
