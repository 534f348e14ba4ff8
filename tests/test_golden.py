"""Pinned SHA-256 digests of CLI JSON output.

The digests were recorded on the commit before the residue-field rewrite
(closed points and the characteristic-2 validation on Poly-mod-pi
arithmetic), so they prove that rewrites of those layers leave every
report byte unchanged.  `points --json` covers split, inert and ramified
points in both characteristics over prime and non-prime fields;
`validate --json` covers characteristic-2 curves where h has an
irreducible factor of degree >= 2, the places where `_check_smooth_char2`
and `_finite_ram_order` take square roots modulo that factor.
"""

import hashlib
import json

import pytest

from curveclass.cli import main
from util import curve_json

POINTS = [
    # (p, m, f, h, max_degree, digest)
    (3, 1, [0, 1, 0, 0, 0, 1], [], 4,
     "2bc0da2d19603ceaa83faef710503d1492f56611db26ddec95bad79950e4e3e7"),
    (3, 1, [1, 1, 0, 0, 0, 0, 2], [], 4,
     "1a8f5bc6dadf6e2c1d8a4b08fd55ad9478547ed3dfbcb088ae4ddea6671dec24"),
    (3, 2, [4, 1, 0, 7], [], 3,
     "e81c6b3bd9c05706525be1ef0649276a1d8314cca3d8b301bc0aada004cbec07"),
    (3, 2, [1, 0, 3, 0, 0, 1], [], 3,
     "462095198c51d447502c61a463a99c867fb6608d191e4e721bfaafc869fd1f5e"),
    (3, 3, [5, 0, 13, 1], [], 3,
     "780d1cfd35bdf644e103b6bfd41fbeef4c1374ff972077715aa7e29b452393c4"),
    (2, 1, [1, 0, 0, 1, 0, 1], [0, 1, 1], 4,
     "37fd3d2bb792eddd28015434dca2e128e5888cecc4b40c069ab5264495d6fee7"),
    (2, 1, [0, 0, 0, 0, 0, 1], [1], 4,
     "5de30cfd1bd38fcfd6959f869bd8f1ba3628928af4063b602f05acd1e902aca7"),
    (2, 2, [1, 2, 0, 3], [0, 1, 1], 3,
     "a008061df07af0c53b85943411f6c52c779c183e105cd32427e92a4123b6210e"),
    (2, 3, [5, 0, 1, 1], [3, 1], 3,
     "1144f110e455eb6f538b4e436328b7e81679f47435a5aefac188d442b20548c6"),
]

VALIDATE = [
    # (p, m, f, h, digest); h has an irreducible factor of degree >= 2
    (2, 1, [1, 0, 0, 1, 0, 1], [1, 1, 1],
     "bb0a83d8ce0bce695fa49d6f599bb3971b4852c9609a8d1fef58bae013d6f3b1"),
    (2, 1, [1, 0, 0, 0, 0, 0, 0, 1], [1, 0, 1, 0, 1],
     "0f40b689f127b355f805f5f4103e0b840eb7fa33fd816ef6e2a92b278747e2e4"),
    (2, 1, [1, 0, 1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 1],
     "06f8c559aeeb5f286e222ce6ee7db4d67f5a15b5c84ccff7d9e13f582a70e12c"),
    (2, 2, [1, 0, 0, 1], [2, 1, 1],
     "b25cd01e4d2334ee3a61bde31434cf9cf707520d2b6a3c465bccb0fc807ea7ad"),
    (2, 3, [3, 1, 0, 1], [1, 1, 1],
     "7c97a32fa38c58e002303becd1df66adda1b4946082e3312a783e519f09cba69"),
]


def _digest(tmp_path, capsys, argv, data):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), "--json"] + argv[1:]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("p, m, f, h, d, digest", POINTS)
def test_points_json_digest(tmp_path, capsys, p, m, f, h, d, digest):
    argv = ["points", "--max-degree", str(d)]
    assert _digest(tmp_path, capsys, argv, curve_json(p, m, f, h)) == digest


@pytest.mark.parametrize("p, m, f, h, digest", VALIDATE)
def test_validate_json_digest(tmp_path, capsys, p, m, f, h, digest):
    assert _digest(tmp_path, capsys, ["validate"], curve_json(p, m, f, h)) == digest
