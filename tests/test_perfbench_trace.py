"""The benchmark worker's --trace hooks still find the layers they wrap."""

import json
import os
import subprocess
import sys

from util import E_Z4_F3, curve_json

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "worker.py")


def test_worker_trace_reports_layers():
    inst = {"curve": curve_json(3, f=E_Z4_F3), "S": [], "T": ["d2#0"], "p": 3}
    proc = subprocess.run(
        [sys.executable, WORKER, "--trace"],
        input=json.dumps(inst) + "\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, result = [json.loads(line) for line in proc.stdout.splitlines()]
    assert ready["ready"] is True
    assert result["status"] == "ok", result["error"]
    layers = result["trace"]["layers"]
    for name in (
        "gf.irreducibles",
        "gf.field_create",
        "curve.closed_points",
        "counting.affine_count",
        "curve.count_points",
        "zeta.l_polynomial",
    ):
        assert name in layers, sorted(layers)
