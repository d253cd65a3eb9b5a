"""Catalog construction, JSON round-trips, steinberg labeling."""

import json

import pytest

from treelab import catalog
from treelab.catalog import (
    builtin_catalog,
    catalog_document,
    emit_catalog,
    get_module,
    load_catalog,
    steinberg,
)
from treelab.exactalg import RingSpec, VerificationBug
from treelab.grouprep import build_group, decompose_jbar, invariants, is_irreducible


def test_catalog_names_p3():
    names = [m.name for m in builtin_catalog(3, 1)]
    assert names == ["trivial", "steinberg", "jbar", "ps:0", "ps:1"]


def test_catalog_p2_single_principal_series():
    names = [m.name for m in builtin_catalog(2, 1)]
    assert names == ["trivial", "steinberg", "jbar", "ps:0"]
    assert get_module(2, 1, "ps:0").rank == 3


def test_catalog_higher_e_has_carriers_only():
    names = [m.name for m in builtin_catalog(3, 2)]
    assert names == ["trivial", "jbar"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_steinberg_is_irreducible_of_dimension_p(p):
    st = steinberg(decompose_jbar(build_group("sl2", p), RingSpec(p, 1))[0])
    assert st.rank == p
    assert is_irreducible(st)
    grp = build_group("sl2", p)
    assert invariants(st, [grp.upper_gen]).nrows == 1


def test_steinberg_refuses_a_summand_with_more_than_one_invariant_line():
    # ps:1 at p = 5 is a principal series summand of a nontrivial character
    ps1 = decompose_jbar(build_group("sl2", 5), RingSpec(5, 1))[1]
    assert ps1.name == "ps:1"
    with pytest.raises(VerificationBug, match="must hold exactly one invariant line"):
        steinberg(ps1)


def test_steinberg_refuses_a_reducible_quotient(monkeypatch):
    ps0 = decompose_jbar(build_group("sl2", 5), RingSpec(5, 1))[0]
    monkeypatch.setattr(catalog, "is_irreducible", lambda M: False)
    with pytest.raises(VerificationBug, match="not irreducible"):
        steinberg(ps0)


def test_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "catalog.json"
    emit_catalog(3, 1, str(path))
    mods = load_catalog(str(path))
    assert [m.name for m in mods] == ["trivial", "steinberg", "jbar", "ps:0", "ps:1"]
    doc = json.loads(path.read_text())
    again = catalog_document(3, 1)
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_loader_accepts_decimal_strings():
    doc = catalog_document(2, 1)
    entry = doc["modules"][0]
    entry["generators"][0]["matrix"] = [str(x) for x in entry["generators"][0]["matrix"]]
    mods = load_catalog(doc)
    assert mods[0].name == "trivial"


@pytest.mark.parametrize("field,bad", [("matrix", 1.7), ("matrix", True), ("matrix", "1.7"), ("p", 3.2)])
def test_loader_rejects_non_integers(field, bad):
    doc = catalog_document(3, 1)
    if field == "p":
        doc["ring"]["p"] = bad
    else:
        doc["modules"][0]["generators"][0]["matrix"][0] = bad
    with pytest.raises(ValueError, match="not an integer"):
        load_catalog(doc)


def test_loader_rejects_unknown_schema():
    doc = catalog_document(2, 1)
    doc["schema"] = "bogus"
    with pytest.raises(ValueError):
        load_catalog(doc)


@pytest.mark.parametrize("path", [("ring",), ("modules",), ("modules", 0, "generators", 0, "matrix")])
def test_loader_names_a_missing_field(path):
    doc = catalog_document(3, 1)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ValueError, match=f"lacks the field '{path[-1]}'"):
        load_catalog(doc)


@pytest.mark.parametrize(
    "path,bad,field",
    [
        (("ring",), [2, 1], "ring"),
        (("modules",), {"trivial": 1}, "modules"),
        (("modules", 0, "generators"), 3, "generators"),
        (("modules", 0, "kind"), ["sl2"], "kind"),
        (("modules", 0, "kind"), {"sl2": 1}, "kind"),
    ],
)
def test_loader_names_a_field_of_the_wrong_json_type(path, bad, field):
    doc = catalog_document(2, 1)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    with pytest.raises(ValueError, match=f"field '{field}' is not a JSON"):
        load_catalog(doc)


def test_loader_names_an_unknown_module_kind():
    # a string kind passes the type check and reaches build_group, which refuses it
    doc = catalog_document(2, 1)
    doc["modules"][0]["kind"] = "sp4"
    with pytest.raises(ValueError, match="unknown group kind 'sp4'"):
        load_catalog(doc)


def test_loader_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([catalog_document(2, 1)]))
    for doc in ([catalog_document(2, 1)], str(path)):
        with pytest.raises(ValueError, match="JSON object"):
            load_catalog(doc)


def test_unknown_module_name():
    with pytest.raises(ValueError, match="unknown module"):
        get_module(3, 1, "nope")
