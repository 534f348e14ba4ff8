"""Build perfbench/pool.json, the instance pool the benchmark draws from.

Each workload is a list of slots.  A slot fixes the shape of an instance:
the field, the degree of f (and of h in characteristic 2), the genus, the
case of the seven-case table it must reach, how S and T are drawn, and, for
oracle slots, the class-number band: a <= h / q^g < b.  For every slot
this script draws random curves until it has enough candidates of that
shape, classifies each once with the program at hand and records the
reference: exit status, case, class number and the digest of the report.

A benchmark run then picks one candidate per slot for each pass, by its
seed; the program only ever sees the curve JSON, p, S and T.

    python3 perfbench/make_pool.py

Run it from the repository root; it imports curveclass from src/ and
rewrites pool.json with every workload.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import report_digest  # noqa: E402

import curveclass as cc  # noqa: E402
from curveclass.errors import BudgetExceeded, CurveClassError  # noqa: E402

POOL_PATH = os.path.join(HERE, "pool.json")
POOL_SEED = 20140108
CANDIDATES = 10


def slot(name, field, deg, genus, case, *, hdeg=0, prime=None, S=(), T=(),
         band=None, group=None):
    """One instance shape.  S/T entries are degrees to draw ids of, or fixed ids."""
    return dict(name=name, field=field, deg=deg, hdeg=hdeg, genus=genus,
                case=case, prime=prime, S=list(S), T=list(T), band=band,
                group=group)


F7, F3, F5, F9 = (7, 1), (3, 1), (5, 1), (3, 2)
F16, F4, F32, F27 = (2, 4), (2, 2), (2, 5), (3, 3)
F13, F11, F25 = (13, 1), (11, 1), (5, 2)

WORKLOADS = {
    # one fresh process per call; the Jacobian oracle dominates
    "oracle": [
        # the oracle's cost grows with h, so each slot holds one band of h
        slot("c2-g2F7-lo", F7, 5, 2, 2, band=(0, 1)),
        slot("c2-g2F7-hi", F7, 5, 2, 2, band=(1, 1.5)),
        slot("c2-g3F3-lo", F3, 7, 3, 2, band=(0, 1)),
        slot("c2-g3F3-hi", F3, 7, 3, 2, band=(1, 1.6)),
        slot("c2-g3F5", F5, 7, 3, 2, band=(0.6, 1)),
        slot("c2-g2F9-lo", F9, 5, 2, 2, band=(0, 1)),
        slot("c2-g2F9-hi", F9, 5, 2, 2, band=(1, 1.3)),
        slot("c4-g2F7", F7, 5, 2, 4, T=(1, 1), band=(0, 1)),
        slot("c5-g2F5", F5, 5, 2, 5, T=(1,), band=(0, 1)),
        slot("c6-g2F7", F7, 5, 2, 6, prime=3, band=(1, 1.5)),
        slot("c6-g2F9", F9, 5, 2, 6, prime=2, band=(1, 1.3)),
        slot("budget-g3F101", (101, 1), 7, 3, "budget", T=("d1#inf0",)),
    ],
    # one fresh process per call; counting and cold extension fields dominate
    "count": [
        slot("c3-g2F16", F16, 5, 2, 3, T=(1,)),
        slot("c5-g4F7", F7, 9, 4, 5, T=(1,)),
        slot("c5-g4F4", F4, 9, 4, 5, hdeg=4, T=(1,)),
        slot("c4-g1F32", F32, 3, 1, 4, hdeg=1, T=(1,)),
        slot("c6-g2F11e", F11, 6, 2, 6, prime=2),
        slot("c3-g2F13", F13, 5, 2, 3, T=(1,)),
        slot("c7-g2F13", F13, 5, 2, 7, prime=3),
        slot("budget-g3F125", (5, 3), 7, 3, "budget", T=("d1#inf0",)),
    ],
    # one fresh process per call; closed-point enumeration dominates
    "points": [
        slot("c1-g1F9-d3", F9, 3, 1, 1, S=(3,)),
        slot("c1-g2F27-d2", F27, 5, 2, 1, S=(2,), T=(1,)),
        slot("c1-g1F5-d5", F5, 3, 1, 1, S=(5,)),
        slot("c3-g1F5-d4", F5, 3, 1, 3, T=(4,)),
        slot("c3-g2F9-d3", F9, 5, 2, 3, T=(3,)),
        slot("c3-g1F11-d3", F11, 3, 1, 3, T=(3,)),
        slot("c3-g1F25-d2d2", F25, 3, 1, 3, T=(2, 2)),
        slot("c4-g1F25-d2", F25, 3, 1, 4, T=(2,)),
        slot("c4-g1F7-d4", F7, 3, 1, 4, T=(4,)),
        slot("budget-g3F101", (101, 1), 7, 3, "budget", T=(1,)),
    ],
    # one process per pass, several curves per field, fields reused warm
    "sweep": [
        slot("F16-c3", F16, 5, 2, 3, T=(1,), group="F16"),
        slot("F16-c7", F16, 5, 2, 7, hdeg=2, prime=5, group="F16"),
        slot("F16-c5", F16, 5, 2, 5, hdeg=2, T=(1,), group="F16"),
        slot("F7-c7", F7, 9, 4, 7, prime=3, group="F7"),
        slot("F7-c3", F7, 9, 4, 3, T=(1,), group="F7"),
        slot("F7-c2", F7, 9, 4, 2, group="F7"),
        slot("F4-c3", F4, 9, 4, 3, T=(1,), group="F4"),
        slot("F4-c7", F4, 9, 4, 7, hdeg=4, prime=3, group="F4"),
        slot("F4-c5", F4, 9, 4, 5, hdeg=4, T=(1,), group="F4"),
        slot("budget-g3F125", (5, 3), 7, 3, "budget", T=("d1#inf0",), group="F125"),
    ],
}


def random_curve(rng, spec):
    p, m = spec["field"]
    q = p**m
    f = [rng.randrange(q) for _ in range(spec["deg"])] + [rng.randrange(1, q)]
    h = []
    if p == 2:
        # hdeg 0 gives a constant h, ramified only at infinity: 2-rank 0,
        # so the class number can be odd
        h = [rng.randrange(q) for _ in range(spec["hdeg"])] + [rng.randrange(1, q)]
    return {"field": {"p": p, "m": m},
            "model": {"kind": "double_cover", "f": f, "h": h}}


def _draw_ids(rng, curve, wanted):
    """Ids for a list of degrees (or fixed ids); None when the curve lacks them."""
    degrees = [w for w in wanted if isinstance(w, int)]
    fixed = [w for w in wanted if isinstance(w, str)]
    if not degrees:
        return fixed
    by_deg: dict[int, list[str]] = {}
    for pt in cc.closed_points(curve, max(degrees)):
        by_deg.setdefault(pt.degree, []).append(pt.id)
    out = list(fixed)
    for d in sorted(set(degrees)):
        need = degrees.count(d)
        have = [x for x in by_deg.get(d, []) if x not in out]
        if len(have) < need:
            return None
        out += rng.sample(have, need)
    return out


def _admissible(spec, curve, lp, p):
    """Whether the class number fits the slot's band and case."""
    q, g = curve.field.q, curve.genus
    h = lp.class_number
    if spec["band"] is not None:
        lo, hi = spec["band"]
        if not lo * q**g <= h < hi * q**g:
            return False
    case = spec["case"]
    if case == 3 or case == 7:
        return h % p != 0
    if case in (4, 5, 6):
        return h % p == 0
    return True


def build_slot(spec, rng, count):
    char = spec["field"][0]
    out = []
    seen = set()
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > 4000:
            raise SystemExit(f"slot {spec['name']}: gave up after {tries} curves")
        cj = random_curve(rng, spec)
        key = json.dumps(cj, sort_keys=True)
        if key in seen:
            continue
        try:
            curve = cc.validate(cc.model_from_json(cj))
        except CurveClassError:
            continue
        if curve.genus != spec["genus"]:
            continue
        p = spec["prime"] or char
        budget = spec["case"] == "budget"
        h = None
        if not budget:
            lp = cc.l_polynomial(curve)
            if not _admissible(spec, curve, lp, p):
                continue
            h = lp.class_number
        S = _draw_ids(rng, curve, spec["S"])
        T = _draw_ids(rng, curve, spec["T"])
        if S is None or T is None:
            continue
        t0 = time.perf_counter()
        try:
            report = cc.classify(cc.MarkedInstance(curve, S, T, p)).to_json()
        except BudgetExceeded:
            report = None
        elapsed = time.perf_counter() - t0
        if budget != (report is None):
            continue
        if not budget and report["case_tag"] != spec["case"]:
            continue
        seen.add(key)
        out.append({
            "curve": cj, "p": p, "S": sorted(S), "T": sorted(T),
            "g": curve.genus, "h": h,
            "exit": 3 if budget else 0,
            "case": None if budget else report["case_tag"],
            "digest": None if budget else report_digest(report),
        })
        print(f"  {spec['name']:<20} {len(out):>2}/{count} h={h} {elapsed:.2f}s",
              file=sys.stderr, flush=True)
    return out


def build(count):
    built = {}
    for wname in sorted(WORKLOADS):
        slots = []
        for spec in WORKLOADS[wname]:
            rng = random.Random(f"{POOL_SEED}/{wname}/{spec['name']}")
            cands = build_slot(spec, rng, count)
            slots.append({"name": spec["name"], "group": spec["group"],
                          "candidates": cands})
        built[wname] = {"slots": slots}
    pool = {"workloads": built,
            "built_with": {"backend": cc.backend_name(), "candidates": count,
                           "seed": POOL_SEED}}
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    build(CANDIDATES)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
