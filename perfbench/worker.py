"""Benchmark worker: runs classify calls for run.py in a fresh interpreter.

    python3 perfbench/worker.py [--trace] [--meta]

The worker imports curveclass from the repository's src/, selects the
kernel and prints one JSON line, {"ready": ...}.  It then reads instances,
one JSON object per line on stdin, and for each prints one JSON line with
the outcome of the
library path model_from_json -> validate -> classify -> to_json, the wall
time of that call and the process's peak resident set.  It exits at the end
of its input.

With --trace the layers are wrapped where their callers look them up and
each call also reports per-layer self time, work counts and its spans.

With --meta the worker instead runs the acceptance suite's truth table and,
when the compiled kernel is importable, the compiled-versus-pure kernel
comparison, and prints one JSON line with both; nothing in it is timed for
the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans at layer boundaries; self time = span - time covered by child spans."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack = []  # [name, start, child_s, span index]
        self.spans = []  # [name, parent span index, start, end] relative to the call
        self.layers = {}
        self.t0 = time.perf_counter()

    def enter(self, name):
        start = time.perf_counter()
        parent = self.stack[-1][3] if self.stack else -1
        self.spans.append([name, parent, start - self.t0, None])
        self.stack.append([name, start, 0.0, len(self.spans) - 1])

    def leave(self):
        name, start, child_s, idx = self.stack.pop()
        end = time.perf_counter()
        dur = end - start
        self.spans[idx][3] = end - self.t0
        if self.stack:
            self.stack[-1][2] += dur
        st = self.layers.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        st["self_s"] += dur - child_s
        st["incl_s"] += dur
        st["calls"] += 1
        return st, dur

    def call(self, name, fn, hook, args, kwargs):
        self.enter(name)
        exc = result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            st, dur = self.leave()
            if hook is not None:
                hook(st, args, result, exc, dur)


def _bump(st, key, n=1):
    st[key] = st.get(key, 0) + n


def _count_points_hook(budget_error):
    def hook(st, args, result, exc, dur):
        curve, n = args[0], args[1]
        if isinstance(exc, budget_error):
            _bump(st, "budget_exits")
        elif exc is None:
            _bump(st, "elements", curve.field.q**n)
            if n == curve.genus + 1:  # the N_{g+1} recount of l_polynomial
                _bump(st, "recount_s", dur)
    return hook


def _field_size_hook(st, args, result, exc, dur):
    # affine_count and field_create both take (p, m, ...): F_{p^m} has p^m elements
    if exc is None:
        _bump(st, "elements", args[0] ** args[1])


def _len_hook(key):
    def hook(st, args, result, exc, dur):
        if exc is None:
            _bump(st, key, len(result))
    return hook


def _jacobian_hook(skip_errors):
    def hook(st, args, result, exc, dur):
        if isinstance(exc, skip_errors):
            _bump(st, "skipped")
        elif exc is None:
            _bump(st, "group_order", result.order)
    return hook


def install_tracing(tracer):
    """Wrap each layer's public functions under the names their callers use."""
    from curveclass.errors import BudgetExceeded, OracleUnsupportedModel

    classify_mod = sys.modules["curveclass.classify"]  # curveclass.classify is the function
    zeta_mod = sys.modules["curveclass.zeta"]
    curve_mod = sys.modules["curveclass.curve"]
    targets = [
        (classify_mod, "closed_points", "curve.closed_points", _len_hook("points")),
        (classify_mod, "l_polynomial", "zeta.l_polynomial", None),
        (classify_mod, "ihara_sum_exceeds", "ihara.ihara_sum_exceeds", None),
        (classify_mod, "jacobian_group", "jacobian.jacobian_group",
         _jacobian_hook((OracleUnsupportedModel, BudgetExceeded))),
        (zeta_mod, "count_points", "curve.count_points", _count_points_hook(BudgetExceeded)),
        (curve_mod, "affine_count", "counting.affine_count", _field_size_hook),
        (curve_mod, "field_create", "gf.field_create", _field_size_hook),
        (curve_mod, "irreducibles", "gf.irreducibles", _len_hook("polys")),
    ]
    for module, attr, name, hook in targets:
        fn = getattr(module, attr)

        def wrapper(*args, _fn=fn, _name=name, _hook=hook, **kwargs):
            return tracer.call(_name, _fn, _hook, args, kwargs)

        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# one call


def run_call(cc, inst, tracer):
    """The public library path for one instance; returns the result record."""
    if tracer is not None:
        tracer.reset()

    def layer(name, fn, *args):
        if tracer is None:
            return fn(*args)
        return tracer.call(name, fn, None, args, {})

    report = error = None
    t0 = time.perf_counter()
    try:
        curve = layer("curve.validate", cc.validate, cc.model_from_json(inst["curve"]))
        marked = cc.MarkedInstance(curve, inst["S"], inst["T"], inst["p"])
        report = layer("classify", cc.classify, marked).to_json()
        status = "ok"
    except cc.BudgetExceeded:
        status = "budget"
    except cc.CurveClassError as exc:
        status, error = "error", f"{type(exc).__name__}: {exc}"
    except Exception:  # noqa: BLE001 - the worker must report and go on
        status, error = "crash", traceback.format_exc(limit=4)
    call_s = time.perf_counter() - t0
    out = {
        "status": status,
        "call_s": call_s,
        "report": report,
        "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        covered = sum(end - start for name, parent, start, end in tracer.spans if parent == -1)
        out["trace"] = {"layers": tracer.layers, "root_self_s": call_s - covered,
                        "spans": tracer.spans}
    return out


# ---------------------------------------------------------------------------
# untimed extras: truth-table gate and kernel sub-report


def run_gate(cc):
    sys.path.insert(0, HERE)
    from checks import TRUTH_TABLE, suite_curve_json

    reports = []
    for label, p, S, T, _want in TRUTH_TABLE:
        try:
            curve = cc.validate(cc.model_from_json(suite_curve_json(label)))
            reports.append(cc.classify(cc.MarkedInstance(curve, S, T, p)).to_json())
        except cc.CurveClassError as exc:
            reports.append({"error": f"{type(exc).__name__}: {exc}"})
    return reports


# bench_count.py's battery: (label, p, f over F_p, h over F_p, extension degrees)
KERNEL_BATTERY = [
    ("y^2 = x^5 + x      /F3", 3, [0, 1, 0, 0, 0, 1], [], (3, 4, 5)),
    ("y^2 = x^3 + 2x + 1 /F3", 3, [1, 2, 0, 1], [], (4, 5, 6)),
    ("y^2 = x^5 + x      /F5", 5, [0, 1, 0, 0, 0, 1], [], (2, 3, 4)),
    ("y^2 + xy = x^3 + 1 /F2", 2, [1, 0, 0, 1], [0, 1], (6, 8, 10)),
]


def kernel_report(cc):
    """Compiled versus pure affine-count kernel, best of three, when both exist."""
    try:
        from curveclass import _countcore
    except ImportError:
        return {"skipped": "compiled kernel not importable"}
    from curveclass.counting import pure_affine_count

    rows = []
    for label, p, fc, hc, degrees in KERNEL_BATTERY:
        for n in degrees:
            big = cc.field_create(p, n)
            args = (p, n, list(big.modulus), [list(big.digits(c)) for c in fc],
                    [list(big.digits(c)) for c in hc])
            best = {}
            counts = {}
            for kname, fn in (("compiled", _countcore.affine_count), ("pure", pure_affine_count)):
                for _ in range(3):
                    t0 = time.perf_counter()
                    counts[kname] = fn(*args)
                    dt = time.perf_counter() - t0
                    best[kname] = min(best.get(kname, dt), dt)
            rows.append({"workload": label, "Q": p**n, "compiled_s": best["compiled"],
                         "pure_s": best["pure"], "agree": counts["compiled"] == counts["pure"]})
    total_c = sum(r["compiled_s"] for r in rows)
    total_p = sum(r["pure_s"] for r in rows)
    return {"rows": rows, "compiled_s": total_c, "pure_s": total_p,
            "speedup": total_p / total_c if total_c else None,
            "agree": all(r["agree"] for r in rows)}


# ---------------------------------------------------------------------------


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--meta", action="store_true", help="truth table and kernel sub-report")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import curveclass as cc
    from curveclass.counting import backend_name

    emit({"ready": True, "backend": backend_name(), "python": sys.version.split()[0]})
    if args.meta:
        emit({"gate_reports": run_gate(cc), "kernel": kernel_report(cc)})
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
    for line in sys.stdin:
        if line.strip():
            emit(run_call(cc, json.loads(line), tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
