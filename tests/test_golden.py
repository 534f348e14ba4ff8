"""Pinned SHA-256 digests of CLI JSON output.

The digests were recorded on the commit before the residue-field rewrite
(closed points and the characteristic-2 validation on Poly-mod-pi
arithmetic), so they prove that rewrites of those layers leave every
report byte unchanged.  `points --json` covers split, inert and ramified
points in both characteristics over prime and non-prime fields;
`validate --json` covers characteristic-2 curves where h has an
irreducible factor of degree >= 2, whose zeros the genus must count with
their degree (the finite places add 2 * deg h).

The later VALIDATE rows and the ORACLE digests were recorded on the commit
before field elements became plain indices.  Those VALIDATE rows have a
non-monic h over F_4 or F_8, so f/h^2 has a leading coefficient other
than that of f, or an even pole of f/h^2 at infinity, so
`_infinity_normalize` takes a square root.  The ORACLE rows run Cantor composition over F_3, F_5, F_7 and F_9;
over F_9 the squarefree test differentiates with m > 1.
"""

import hashlib
import json

import pytest

from curveclass.cli import main
from util import E_9_F7, E_33_F7, E_H3_F3, E_H6_F3, G2_X5PX, curve_json

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
    # h not monic: the denominator of f/h^2 is scaled by an inverse
    (2, 2, [1, 0, 0, 1], [1, 2],
     "407a5ae5e50209234b4f8d9324b5524041212c87d3366aec050f8886b580c7bf"),
    (2, 3, [1, 0, 0, 1], [1, 5],
     "f17b757a66f049f7b92fd6ffd62e0026bf35fb68738ac8c428c1c0b0b4015605"),
    (2, 3, [3, 1, 0, 1, 0, 1], [1, 0, 4],
     "c05d3cafdea386ca7dccb2348563bd66abb7ad61e7b260886ea666c2ab7b1505"),
    # even pole at infinity: one square-root step, then an odd pole
    (2, 1, [0, 0, 0, 1, 1], [1],
     "543d5a064fd37df18b51dfde3063eb7058cb7b117ca1d8a099a67459099c7f37"),
    (2, 2, [0, 0, 0, 1, 2], [1],
     "cb2c567a684e76fa58bd0a8b514d1a34dbd8553d473655af84a7de51587c4274"),
    # even pole at infinity that the square-root step removes
    (2, 2, [1, 0, 2, 1, 1], [0, 1],
     "692d7755682468d7a8fbf5adab78e2ac054665268157ddf554606a3aed682315"),
    (2, 2, [1, 0, 1, 1, 1], [0, 1],
     "84f6aa01169830cd54248106de3769c53eac2cb28aa489b9d82aa657e6c0c00c"),
    # both: h not monic and an even pole at infinity
    (2, 2, [1, 0, 3, 3, 2], [0, 3],
     "ad480e3511521f6d2ca82629979b4fd1e7976702ffc8dc73460af13c46b03a03"),
    (2, 3, [1, 0, 0, 0, 0, 1, 6], [3],
     "84ebeeeeeb59d531cfadbd9cfacffe464d098761f44604271c7b347b0591d733"),
]

ORACLE = [
    # (p, m, f, digest)
    (3, 1, G2_X5PX, "92635640c5e75857238458d04c2e6aaeeceb8aeddbb19141d87310237145afbd"),
    (3, 1, E_H3_F3, "e54426aca0bee6ecd8ce9d8a16dfb307b3623b2ce1189ad0cd6ef9b0651cec09"),
    (3, 1, E_H6_F3, "f5293f966f3d19c0c8ab72567b4f224a4bae6600a38e5d8ae435d43eaea97b15"),
    (5, 1, G2_X5PX, "29b90ebb7369536076b113aa5429652ae0009421c5a8bcf1b35ac30e959b585e"),
    (5, 1, (1, 0, 0, 1), "f5293f966f3d19c0c8ab72567b4f224a4bae6600a38e5d8ae435d43eaea97b15"),
    (7, 1, E_9_F7, "773b9f28a99a64a04f3c61ffe7aa505738e843765b4ceba2612422f5998e09da"),
    (7, 1, E_33_F7, "9f41acc0ccf5f85fdb55a029f7dc50b16c086e1371c2bbbd1ab91c4db7c62485"),
    (7, 1, G2_X5PX, "de4ea733723eb7353c9bd54ba165890d654c13fbc0fac7c31cfc96e626a934b3"),
    (3, 2, (0, 1, 0, 1), "985d0dfb938ff81b3e6a99ce6bcb0ef5e3d77240a03b5c59f352a1e0c087528c"),
    (3, 2, (1, 2, 0, 1), "29e1627c066dbca1c725a4fee33dc7d628738fe40a71f4ae9b178da935f1ae2c"),
    (3, 2, (2, 0, 5, 1), "7e221ea7d24707bcda61ed1ef3ef705cff1f3c28c50a93d7d7913f1abef1ff74"),
    (3, 2, G2_X5PX, "b2be9b7036620b474bd1c82ce40b792f45ecfe8b7d27d3328bc1a68e67da01f4"),
    (3, 2, (4, 0, 1, 3, 0, 1), "48d6af55947b3bc6d52488b5e2096498a4cd0ec307c5eac79a1a7b634583939e"),
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


@pytest.mark.parametrize("p, m, f, digest", ORACLE)
def test_oracle_json_digest(tmp_path, capsys, p, m, f, digest):
    assert _digest(tmp_path, capsys, ["oracle"], curve_json(p, m, f)) == digest
