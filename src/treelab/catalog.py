"""The built-in module catalog and its JSON interchange format.

A catalog document lists named modules by their generator action
matrices (row-major integer entries), the ring (p, e) and the group
kind.  Integer entries may be emitted as decimal strings should they
ever exceed 2^53; at the supported sizes they do not, and the loader
accepts both forms.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .exactalg import RingSpec, VerificationBug
from .grouprep import (
    GModule,
    build_group,
    decompose_jbar,
    invariants,
    is_irreducible,
    jbar,
    quotient_gmodule,
    trivial_module,
)

CATALOG_SCHEMA = "treelab.catalog.v1"
_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def steinberg(ps0: GModule) -> GModule:
    """The length-1 quotient of ps0, the trivial-character summand of jbar.

    The constants are the only invariants of jbar, so they are the one
    invariant line of ps0; the quotient by it has dimension p and is
    checked to be irreducible at build time.
    """
    const_line = invariants(ps0, ps0.group.gens)
    if const_line.nrows != 1:
        raise VerificationBug("the trivial-character summand must hold exactly one invariant line")
    st = quotient_gmodule(ps0, const_line, name="steinberg")
    if st.rank != ps0.group.p or not is_irreducible(st):
        raise VerificationBug("steinberg quotient is not irreducible of dimension p")
    return st


def builtin_catalog(p: int, e: int) -> list[GModule]:
    """Named SL2(F_p) modules shipped with the tool.

    For e = 1: trivial, steinberg, jbar and the principal-series
    summands ps:i.  For e > 1 only trivial and jbar are available (the
    summand constructions use field coordinates).
    """
    group = build_group("sl2", p)
    ring = RingSpec(p, e)
    mods = [trivial_module(group, ring), jbar(group, ring)]
    if e == 1:
        summands = decompose_jbar(group, ring)
        mods.insert(1, steinberg(summands[0]))
        mods.extend(summands)
    return mods


def get_module(p: int, e: int, name: str) -> GModule:
    mods = builtin_catalog(p, e)
    for m in mods:
        if m.name == name:
            return m
    raise ValueError(f"unknown module {name!r}; catalog has {[m.name for m in mods]}")


def select_modules(p: int, e: int, name: str = "all") -> list[GModule]:
    """The whole catalog for name "all", else the one module of that name."""
    if name == "all":
        return builtin_catalog(p, e)
    return [get_module(p, e, name)]


def catalog_document(p: int, e: int) -> dict:
    entries = []
    for m in builtin_catalog(p, e):
        gens = []
        for g in m.group.gens:
            gens.append(
                {
                    "element": [int(x) for x in g],
                    "matrix": [int(x) for x in m.action(g).reshape(-1)],
                }
            )
        entries.append({"name": m.name, "kind": m.group.kind, "rank": m.rank, "generators": gens})
    return {"schema": CATALOG_SCHEMA, "ring": {"p": p, "e": e}, "modules": entries}


def emit_catalog(p: int, e: int, path: Optional[str] = None) -> dict:
    doc = catalog_document(p, e)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return doc


def _as_int(x) -> int:
    """An integer entry: a JSON integer or a decimal string, nothing else."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str) and x.isdecimal():
        return int(x)
    raise ValueError(f"catalog entry {x!r} is not an integer")


def load_catalog(doc_or_path) -> list[GModule]:
    """Parse a catalog document back into verified modules.

    Re-serializing the result reproduces the document bit-exactly; a
    malformed document raises ValueError.
    """
    if isinstance(doc_or_path, (str, bytes)):
        with open(doc_or_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = doc_or_path
    if not isinstance(doc, dict):
        raise ValueError("a catalog document is a JSON object")
    if doc.get("schema") != CATALOG_SCHEMA:
        raise ValueError(f"unknown catalog schema {doc.get('schema')!r}")

    def typed(kind: type, value, field: str):
        """value, checked to be a JSON object (kind dict), array (kind list) or string (kind str)."""
        if not isinstance(value, kind):
            raise ValueError(f"catalog field {field!r} is not a JSON {_JSON_TYPES[kind]}")
        return value

    try:
        ring_doc = typed(dict, doc["ring"], "ring")
        p = _as_int(ring_doc["p"])
        ring = RingSpec(p, _as_int(ring_doc["e"]))
        out = []
        for entry in typed(list, doc["modules"], "modules"):
            entry = typed(dict, entry, "modules")
            group = build_group(typed(str, entry["kind"], "kind"), p)
            rank = _as_int(entry["rank"])
            mats = {}
            for gen in typed(list, entry["generators"], "generators"):
                gen = typed(dict, gen, "generators")
                elem = tuple(_as_int(x) for x in typed(list, gen["element"], "element"))
                flat = np.array([_as_int(x) for x in typed(list, gen["matrix"], "matrix")], dtype=np.int64)
                mats[elem] = flat.reshape(rank, rank)
            mod = GModule(group, ring, mats, name=entry["name"])
            mod.verify_action(samples=20, seed=0)
            out.append(mod)
    except KeyError as err:
        raise ValueError(f"catalog document lacks the field {err.args[0]!r}") from None
    return out
