"""Golden digests: the canonical reports of fixed configurations.

Each digest is the sha256 of json.dumps(reports, sort_keys=True) with
every elapsed_s field removed.  A Howell form is canonical, so a change
that only reorganises how spans are computed keeps every digest; a change
meant to alter an output updates the digest here and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from treelab.cli import main
from treelab.exactalg import RingSpec, howell_array
from treelab.grouprep import build_group, jbar
from treelab.halftree import tree_reports
from treelab.hecke import check_flatness
from treelab.lemmas import (
    InjectionInstance,
    SurjectionInstance,
    check_inherited_generation,
    check_invariant_surjectivity,
    lemma21_reports,
)


def strip_elapsed(x):
    if isinstance(x, dict):
        return {k: strip_elapsed(v) for k, v in x.items() if k != "elapsed_s"}
    if isinstance(x, list):
        return [strip_elapsed(v) for v in x]
    return x


def digest(reports) -> str:
    text = json.dumps(strip_elapsed(reports), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_doc(tmp_path, argv: str) -> dict:
    out = tmp_path / "doc.json"
    main(argv.split() + ["--json", str(out)])
    return json.loads(out.read_text())


VERIFY = {
    "all --p 2 --depth 4 --seed 7 --random 3": "86f203f09f0c041087f2679759db72c940c93ce4fbafee835e4de4b71f44745c",
    "all --p 3 --depth 3 --seed 7 --random 2": "95350574fdb1aed429da27be09fe7b66b25cb09cc53c2b44983546491ff04833",
    "hecke --p 3 --seed 1 --random 3": "e93ed30f783ec7db2ed1764e6e9ebea4eec2fa142bc82ec0dbcbbd4a823c65d3",
    "hecke --p 2 --e 2": "eebb1d8c426323fe78193d389100f1864a1cf73e8f3530ccc7779d7a02039912",
    "lemma22 --p 3 --e 3 --seed 7 --random 5": "25dd4fafbfa55c45435b5dc5bcae2517d25b7af1b8e0155be9261246f80afe25",
    "corrpro --p 3 --depth 4 --rho twist:1 --twist 2": "fbc2999d3e11c9f500736c5988749e7570f12fb9534201685d8b13459cda1aae",
    # a 1240 x 3744 boundary, and the flatness section from six 60 x 60 and four 30 x 30 block systems
    "corrpro --p 5 --depth 3": "feca2083912737f7f9cfd9c285e0f804271248e8301a55e3207cfee4247dab17",
    "hecke --p 5": "8d456c67e683050bad6fc01be7fc9c925c2c10ae06d1dde23fd28b8007bee489",
    # the benchmark's Hecke run: five random modules through both tensor
    # presentations, the rank-2 modules by the balancing one
    "hecke --p 5 --seed 7 --random 5": "bb468f5bcd2c2e8ef7a0b724cad87ce01ebe062507357fe5c4ef86b0b8aad027",
    # the held-out benchmark seed: five random modules through the generators presentation
    "hecke --p 5 --seed 1009 --random 5": "226e0ee5ddc4bc7a9cd0e28a89af7929848970a0949f92647323208022059f70",
    # the tensor functor and flatness over Z/125, recorded as data
    "hecke --p 5 --e 3": "21adfdb2952a1f2e46aa87096d7c54719c8ef4dbdab857cd7767afb2b6010750",
    # the largest Hecke algebra: 72 double cosets on 288 cosets, a section from
    # fifteen 112 x 112 and six 56 x 56 block systems, two random modules
    "hecke --p 7 --seed 7 --random 2": "0b39e190b31771aaef6ea49ec62a9f4ce2a898e5cd33bb9ee7b9ca1980185ab4",
    # the large end: a 4788 x 19200 boundary, reduced through the tree basis only
    "corrpro --p 7 --depth 3 --module jbar": "0fa8a72df665418b032f73eb4bd6ab254deb1cab70fde38726b404eca1ffcaad",
    "presentation --p 7 --depth 3 --module jbar": "6628a21b4c446b408112c6c505a09dbd528d83ffc23c8d2b6eee8c69088f94d3",
    # the fixed part over 192 shift orbits of a 134448-dimensional C0, read off the root path
    "corrpro --p 7 --depth 4 --module jbar": "0139fe9381a677544a575e64c848a49c0c1fd0fe17989dcc4d16c4088f30c3ce",
}

REDUCE = "reduce --p 3 --depth 4 --seed 5 --count 3"
# sampled classes are drawn in the section coordinates of the tree basis,
# which the leaf-first peel reduces to (ChainComplexData.boundary_span)
REDUCE_DIGEST = "4477772a70466fef297eed2f8aece681d8d00cd5ee9516a8f06cc37602e4ac01"
# the large end: 19200-dimensional 0-chains with 4788-edge certificates
LARGE_REDUCE = "reduce --p 7 --depth 3 --seed 5 --count 3"
LARGE_REDUCE_DIGEST = "38beebbfd615e99c296a5672f357ac0e17df00569c450662ffd057d070c7f6be"

FLATNESS = {
    (3, 1, "presentation"): "b0524783885a74194359c621920af043177870cc71a2754647efec22d12c2ab5",
    (3, 1, "split_test"): "3acc6195b9a7ef84d80d007b11799429e7487354eb8ceb09121b978eb40728e1",
    (2, 2, "presentation"): "cffcb1bef8f49c8907f0fc70834d06436c3416bcb6d7c5b1f0fd2eee822de461",
    # the section is the canonical residue of the solution set modulo its kernel;
    # at e > 1 the whole-system solve had picked one by its elimination order
    (5, 2, "presentation"): "7392adf3cbde6eefb727f9074b8992ed6a0504b433f9a8f24e561ef2d7e22b9f",
}

# one hypothesis rejection from each check that can reject
REJECTED_DIGEST = "bcf9764861e782b072f10ff430ac96f816e867605f2429d22a8287ff6a72aba6"


def rejected_reports() -> list:
    """jbar over Z/9 fails the e = 1 hypothesis; the instances over F_3 are
    not a surjection and not a submodule."""
    J9 = jbar(build_group("sl2", 3), RingSpec(3, 2))
    ring = RingSpec(3, 1)
    J = jbar(build_group("sl2", 3), ring)
    zero = howell_array(ring, np.zeros((1, J.rank), dtype=np.int64))
    full = howell_array(ring, np.eye(J.rank, dtype=np.int64))
    return [
        *lemma21_reports(J9),
        *tree_reports(J9, 2, "w0", 1, ("corrpro", "presentation", "cogtri")),
        check_invariant_surjectivity(SurjectionInstance("not-onto", J, full, zero)),
        check_inherited_generation(InjectionInstance("not-sub", J, full, zero)),
    ]


@pytest.mark.parametrize("argv", sorted(VERIFY))
def test_verify_reports_digest(tmp_path, argv):
    doc = cli_doc(tmp_path, "verify " + argv)
    assert digest(doc["reports"]) == VERIFY[argv]


def test_reduce_runs_digest(tmp_path):
    doc = cli_doc(tmp_path, REDUCE)
    assert digest(doc["runs"]) == REDUCE_DIGEST


def test_large_reduce_runs_digest(tmp_path):
    doc = cli_doc(tmp_path, LARGE_REDUCE)
    assert digest(doc["runs"]) == LARGE_REDUCE_DIGEST


@pytest.mark.parametrize("p,e,method", sorted(FLATNESS))
def test_flatness_report_digest(p, e, method):
    rep = check_flatness(p, e, method)
    assert "section" in rep.details
    assert digest([rep.to_dict()]) == FLATNESS[(p, e, method)]


def test_rejected_reports_digest():
    reports = [r.to_dict() for r in rejected_reports()]
    assert {r["status"] for r in reports} == {"rejected"}
    assert digest(reports) == REJECTED_DIGEST


def test_rejected_reports_are_timed():
    assert all(r.elapsed_s > 0 for r in rejected_reports())
