"""CLI outputs that depend on the exact simplex, pinned by sha256 digests.

The eds-general rounding reads the primal LP vertex, the multicut pipeline
and the eds-tree verifier solve LPs, and `batch` prints both relaxation
values.  A change to the simplex that moves a vertex changes these bytes.
"""

import hashlib

import pytest

from graphcover import cli


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _gen(tmp_path, name, args):
    path = tmp_path / name
    assert cli.run(["gen"] + args + ["-o", str(path)]) == 0
    return path


# sha256 of (`solve --certificate` stdout, certificate bytes).
GOLDEN_SOLVE = {
    "random-eds-general --n 6 --m 6 --seed 0": (
        "92eb31b4d72f322c3e9a2aac6bc1d17f0ed1bee9f946ef16e7ae33268985283e",
        "3c8e5f7580ab35c6466e9105518ee7a211616ea83582e8de94edcd4c4a863bf8",
    ),
    "random-eds-general --n 6 --m 6 --seed 1": (
        "b44b1232dee8d73eaf056e2a5ad7562b804894c699832c64cca9a3bdff2025b1",
        "340f2446bb8431745f0105e7ea6d876b07c7485b7bbab7738d2739d7def4047e",
    ),
    "random-eds-general --n 6 --m 6 --seed 2": (
        "bb3f63d6d6cd958d7a0efaf60ae3d316cf124e3f589eddc552b3a09ccdb115e4",
        "ea7550c51b4895ec1805dab3cd105eb4260a482332d6a4bcf8602cd89771a873",
    ),
    "random-eds-general --n 8 --m 10 --seed 0": (
        "32bd2c2d25f026d3c487cb2dc3bbf63155ff9dc78329367b1a6fbdc9d64f6241",
        "580a317590d6c70f869214b61ad7a29c190772413ae7e61e53eeba3ff8a7e096",
    ),
    "random-eds-general --n 8 --m 10 --seed 1": (
        "72a03f6e6a149c584a7ca734429121c67de44b0251cf1aebdc2669173496f2ee",
        "1409402f97f379de68a417655247b987355589128bd7927e8aff38e061b1f1ef",
    ),
    "random-eds-general --n 8 --m 10 --seed 2": (
        "19e3ebbe7b9e0f1c2486d60a497bc2f69d156f717487bc3e6b6b56daed0b7463",
        "ad762a85aef5f45fb2feb5bedd28231df3f84cdc9a53ad9f0bbe28a82202071c",
    ),
    "random-tree-multicut --n 40 --k 10 --seed 0": (
        "95b4eb755e361f30197731b60c1a6c637702244996ecb2eb524c52907ce03dd5",
        "eaec2579902ab9f49dd640892dfdfb9b904b836e059767ed74fbd1d9f337b132",
    ),
    "random-tree-multicut --n 40 --k 10 --seed 1": (
        "6bcd8201377fc430987a87ef3d4bec6cf053a1cb0ccc582b1066b5d98564aa72",
        "b526368c5606376fd327c09977a96582dad52a81a0c24d6e7fa6b80c76024922",
    ),
    "random-tree-multicut --n 40 --k 10 --seed 2": (
        "2ad7ac06c2555a91a1ababf621a871e3da5b1a39739566ba47554a42deb45a02",
        "a0d944a38c7033ced5e2b2b2a755a276867b1897e9bf273a46a47688f180ca81",
    ),
    "random-tree-multicut --n 40 --k 10 --seed 3": (
        "ef3a30eab4530d3688240e067c82e2c1eba74925fd77dcc6d230b4cf16309353",
        "251b032eb2c8b0d23508de5963bd3ac1886780592a1c5a7e0422605502be4617",
    ),
    "random-tree-multicut --n 100 --k 25 --seed 0": (
        "1434e2e0710f7f337eb6a44ee728c584472f3bca1fd715ec94bad06aef2ed650",
        "3869a11d29994e6e3db1dc063ae9fbf73be666340d6d64f7c60d297854c06384",
    ),
    "random-tree-multicut --n 100 --k 25 --seed 1": (
        "44befb1f25767e69f0520496f4534e35ccf4408c5f5dcb3ef1c84c711bb1861a",
        "ca7262c0aca3e022571f96776d44ab4d73c81c7c394bb1d570694896fb572d46",
    ),
    "random-tree-multicut --n 100 --k 25 --seed 2": (
        "e78bdb8d3d0ae6a34a66bbd59f4543042e23ab3a9a8aca71833ebace3fd09d18",
        "dce97196376ab51f2dfde42f62b0abe05472b0db37dfdf006e4e8159463bb941",
    ),
}


def solve_digests(spec, tmp_path, capsys):
    inst = _gen(tmp_path, "inst", spec.split())
    cert = tmp_path / "out.cert"
    capsys.readouterr()
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    return (_sha(capsys.readouterr().out), _sha(cert.read_text()))


@pytest.mark.parametrize("spec", sorted(GOLDEN_SOLVE))
def test_solve_outputs_are_pinned(spec, tmp_path, capsys):
    assert solve_digests(spec, tmp_path, capsys) == GOLDEN_SOLVE[spec]


# Multicut instances on which an earlier deletion rule tripped one of its
# own assertions, so that `solve` exited 3.
REVERSE_DELETE_MULTICUT = {
    "n20-k8-s7": "random-tree-multicut --n 20 --k 8 --seed 7",
    "n40-k10-s10": "random-tree-multicut --n 40 --k 10 --seed 10",
}


@pytest.mark.parametrize("spec", sorted(REVERSE_DELETE_MULTICUT))
def test_multicut_solves_and_verifies(spec, tmp_path, capsys):
    inst = _gen(tmp_path, "inst", REVERSE_DELETE_MULTICUT[spec].split())
    cert = tmp_path / "out.cert"
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    capsys.readouterr()
    assert cli.run(["verify", str(inst), str(cert)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "verdict: PASS" and "FAIL" not in out
    assert err == ""


# sha256 of `verify` stdout and its exit code.  Seed 23 is an instance whose
# dual the verifier cannot complete (the dual-completion LP is infeasible).
GOLDEN_VERIFY = {
    "random-tree-eds --n 60 --seed 0": (
        "f5d347d4c0768a4f42037f8bc9015c6f1f4bc85a332d1d99e68f1f646c3b7b45",
        0,
    ),
    "random-tree-eds --n 60 --seed 23": (
        "c79faa9f0d0c5b633ddfe6d86e28dd0dc33531376cedb7e0a3e99c491fd3cc4a",
        1,
    ),
}


def verify_digest(spec, tmp_path, capsys):
    inst = _gen(tmp_path, "inst", spec.split())
    cert = tmp_path / "out.cert"
    assert cli.run(["solve", str(inst), "--certificate", str(cert)]) == 0
    capsys.readouterr()
    code = cli.run(["verify", str(inst), str(cert)])
    return (_sha(capsys.readouterr().out), code)


@pytest.mark.parametrize("spec", sorted(GOLDEN_VERIFY))
def test_verify_outputs_are_pinned(spec, tmp_path, capsys):
    assert verify_digest(spec, tmp_path, capsys) == GOLDEN_VERIFY[spec]


BATCH_SUITE = [
    ("eds7.eds", ["random-tree-eds", "--n", "7", "--seed", "3"]),
    ("eds10.eds", ["random-tree-eds", "--n", "10", "--seed", "5"]),
    ("cut6.tree", ["random-tree-multicut", "--n", "6", "--k", "3", "--seed", "1"]),
    ("cut8.tree", ["random-tree-multicut", "--n", "8", "--k", "3", "--seed", "2"]),
    ("gen5.eds", ["random-eds-general", "--n", "5", "--m", "5", "--seed", "4"]),
    ("sets.cov", ["random-set-cover", "--m", "6", "--n", "5", "--seed", "6"]),
    ("fac.fl", ["random-facility-location", "--clients", "4", "--facilities", "5",
                "--seed", "7"]),
]

GOLDEN_BATCH = "8a1fee760311385563fc0478d6194fa87deee2cad1cc72ea42ee6854d2cd3f18"


def batch_digest(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    for name, args in BATCH_SUITE:
        _gen(suite, name, args)
    report = tmp_path / "report.tsv"
    assert cli.run(["batch", str(suite), "--report", str(report)]) == 0
    capsys.readouterr()
    return _sha(report.read_text())


def test_batch_report_is_pinned(tmp_path, capsys):
    assert batch_digest(tmp_path, capsys) == GOLDEN_BATCH
