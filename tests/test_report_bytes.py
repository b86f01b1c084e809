"""Byte-stability guard: the sha256 of every ``--json`` report on the shipped
manifests.

The digests pin ``acgeom <command> <manifest> --json`` for all eight commands
on every manifest, plus ``validate --exact`` on the B-normal ones.  A change
that moves any report byte (a coefficient's rounding, a signed zero, a row
added or renamed) fails here.  When a change to the reports is intended,
regenerate the table and say which reports moved and why:
``python tests/test_report_bytes.py`` (with ``src`` on ``PYTHONPATH``) prints
the table for the current tree, each digest from the call the test makes.
"""

import contextlib
import hashlib
import io
import os

import pytest

from acgeom.cli import COMMANDS, main

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")

# (command, manifest, extra flags) -> sha256 of the printed JSON
DIGESTS = {
    ("validate", "deformation_n2.json", ()):
        "5d5239e712fe4e6e2efc1d218d310a32d3a5ca1742c987fa7fed22c3628b0c96",
    ("validate", "fix_b.json", ()):
        "a8b005a760ae43eb074eccf1d112863af0457b8652a2e6fe7fe089cba5a4abbe",
    ("validate", "fix_b2.json", ()):
        "99b100a9b6aecaed31183b5cca739a193d1a17e1201c87399a24d2b59f480844",
    ("validate", "fix_j0.json", ()):
        "b248c711cc4e4f17742f2ef906f902a78b3daae223511f7c7d5cc18307a233cf",
    ("validate", "j0_symplectic.json", ()):
        "a3d211fb94b008b528d09275ad48daf5e154294b0d4e336afde0925db89011a5",
    ("torsion", "deformation_n2.json", ()):
        "ec758e806e39675982f790b9c042aac8a2ae670961f4a81e20263348662a4b2f",
    ("torsion", "fix_b.json", ()):
        "73cb9de6f4bc9b406a944b7759e77000a5b8295df75006eab1c65174f71d4993",
    ("torsion", "fix_b2.json", ()):
        "274c9c994dc4710555b6885853ed49f7919540743efd6243c8c926d21398eb68",
    ("torsion", "fix_j0.json", ()):
        "9ac70d2dfd91ba07296027c073737d9fcaba75235a7711d37a2f7ca5e88e0775",
    ("torsion", "j0_symplectic.json", ()):
        "fca0905caaa0a19b6a9a206018d5a9cf7a7aa21ae805eea8cf67942934e87440",
    ("normalize", "deformation_n2.json", ()):
        "25025c66fe09bed795ff932bbd609c46ca47c43dfb426152fb771fcc60812f1c",
    ("normalize", "fix_b.json", ()):
        "184bf7e1dbc85a5f5cce843a6419bda3aa44c39170b9747c901ca91c31aa41fd",
    ("normalize", "fix_b2.json", ()):
        "6f807854c609a8a9d4ab536d112bdd607e0cbd963da8d581c182f1aea3e2070c",
    ("normalize", "fix_j0.json", ()):
        "304a81ad0d8f122d05271deb983f40f51ace8c9bab1dbf5ae2b96a0187d38f7c",
    ("normalize", "j0_symplectic.json", ()):
        "f95502986813a1b63cb8ac440939ffa5474b3c6c568a09e0929b7f3df2cbb151",
    ("identities", "deformation_n2.json", ()):
        "819e3632409d34c884521d7704fdae71e882cf2523096b946eb01d12e0e70d5e",
    ("identities", "fix_b.json", ()):
        "4b61a1f3afe780d59a97f5d27ec54cbb7a03fa51fc472698c78cb69ea045550c",
    ("identities", "fix_b2.json", ()):
        "84d34a73a5b0e70c9dd0a6c5bfdd0ad91b65a3efa7f88de2c37fea76be816a58",
    ("identities", "fix_j0.json", ()):
        "fae44d7bcb556acaeb15d59882b010e6314e4906425804450f53fc64e9db4325",
    ("identities", "j0_symplectic.json", ()):
        "9e7706686c2892312c024cee95b2269134873bc1075967ceb1cdfbe1b820c1f5",
    ("curvature", "deformation_n2.json", ()):
        "d029d2900d4d393526448e891eb4658c6971718311c21d2916e43bfa03d7dbc7",
    ("curvature", "fix_b.json", ()):
        "d72fea48d32b9c55180823db79060b3dce52605379a535f8e4bf027a62046f6c",
    ("curvature", "fix_b2.json", ()):
        "d4d6a503439b3eaab633da69f36df0fd450f5a670e2cd17ad9b980e7d03cfc96",
    ("curvature", "fix_j0.json", ()):
        "0fe1f776a9e8fd8999c9e123e9e3bd395467cba0b4357f7510d15d69c8955f5c",
    ("curvature", "j0_symplectic.json", ()):
        "fc950ffa26128c352121334db309731908244f12043c4f27c78e6b4a3855a8a1",
    ("decompose", "deformation_n2.json", ()):
        "9b349e1f27ff37023241ca25571e6e9e49ad2eeb083e5b58ac8835a7e76f1c80",
    ("decompose", "fix_b.json", ()):
        "24f60bf1f29c50d6e258ea725661c35e4625ffce3ca4788d06bf239dd073a13e",
    ("decompose", "fix_b2.json", ()):
        "4b0d138489eae768dabf831b7ddd514915a9544183422e13f1ac3253419b7b3a",
    ("decompose", "fix_j0.json", ()):
        "6e9649ae8116cbf7ad318a572f77e8adc8490f595f41590b39ff30928a7cf3e7",
    ("decompose", "j0_symplectic.json", ()):
        "1e07c13737c7a2b930dff864bbae2bf55b03a0c15d98d97c43773ac5192d370a",
    ("asymptotics", "deformation_n2.json", ()):
        "f3260edd1bf8205d639c89908714d9c8d6aee25b7bc3d3823db443ddba58a555",
    ("asymptotics", "fix_b.json", ()):
        "7f909469be60d495a189f89967ebbe73bbcceba3dcbbcd3106327d175ded6d35",
    ("asymptotics", "fix_b2.json", ()):
        "271b8148b1a934c228f0286c38f43fda471f37813cfd7305cbf7ac31dc7e68e6",
    ("asymptotics", "fix_j0.json", ()):
        "f561fdf324db1ffff37a028a8bc7dfbf6e1b3a926352796e3448865e054f4fae",
    ("asymptotics", "j0_symplectic.json", ()):
        "6c632464a09672af0ed39c9d284a690f6e4e0f51ec02cc783b0fbb45b61ecab2",
    ("geodesic", "deformation_n2.json", ()):
        "bd1774f1e113ae17238aa9df8cb8a5968a30b0d6c1784399e46da3562bdd9277",
    ("geodesic", "fix_b.json", ()):
        "7b3554c9aebf5ed27a1267ba70644017153c23a469e756bab2c3c74643f86b6d",
    ("geodesic", "fix_b2.json", ()):
        "bc96bec0a7ed689068781d8ffdbd9aa64c77ae935d08ed75d6fa4f73ccf28066",
    ("geodesic", "fix_j0.json", ()):
        "6de3140608948845b1eee71282ffde0636503849497a5ff9c4ff69622942fbf0",
    ("geodesic", "j0_symplectic.json", ()):
        "51261c7cbb4feab749b472542dd0e03be8ceaa2b18bcb58f220bbc36a1d26cf4",
    ("validate", "fix_b.json", ("--exact",)):
        "9c4a5b1a7a7b7761eb00c7208f1815606336582419d6896ed841d06d6ff59470",
    ("validate", "fix_b2.json", ("--exact",)):
        "4d9f5472d29a13c65451999dc846975d6da9ec9c229e1cdb9a35a03bcf365752",
}


def test_table_covers_every_command_and_manifest():
    names = sorted(f for f in os.listdir(MANIFESTS) if f.endswith(".json"))
    plain = {(c, m) for c, m, flags in DIGESTS if not flags}
    assert plain == {(c, m) for c in COMMANDS for m in names}


def report_digest(command, manifest, flags):
    """sha256 of what ``acgeom <command> <manifest> --json <flags>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([command, os.path.join(MANIFESTS, manifest), "--json", *flags])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command, manifest, flags", sorted(DIGESTS))
def test_json_report_bytes(command, manifest, flags):
    assert report_digest(command, manifest, flags) == \
        DIGESTS[(command, manifest, flags)]


if __name__ == "__main__":
    print("DIGESTS = {")
    for key in DIGESTS:
        print(f"    {key!r}:".replace("'", '"'))
        print(f'        "{report_digest(*key)}",')
    print("}")
