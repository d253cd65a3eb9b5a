"""Command-line verification suites and catalog management.

Subcommands:

    treelab verify {lemma21|lemma22|corrpro|presentation|cogtri|hecke|all}
    treelab reduce
    treelab catalog {emit|list}

Every verify run emits a JSON report (stdout or --json PATH) and exits 0
iff the aggregate verdict is "pass".  Identical configuration and seed
reproduce byte-identical reports up to the elapsed-time fields.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .catalog import builtin_catalog, emit_catalog, select_modules
from .exactalg import RingSpec
from .grouprep import GModule
from .halftree import (
    build_complex,
    parse_rho,
    reduce_chain,
    sample_fixed_class,
    tree_reports,
)
from .hecke import HECKE_CHECKS, hecke_suite
from .lemmas import lemma21_suite, lemma22_suite
from .report import FAIL, PASS, LemmaReport, aggregate_status

MAX_DEPTH = 6
# suites that work over the field F_p only; lemma22 and hecke take any e
FIELD_ONLY = ("lemma21", "corrpro", "presentation", "cogtri", "reduce")
# the optional flags each command reads; setting any other one away from
# its default is a usage error, so no flag is silently ignored
FLAGS = {
    "depth": "--depth",
    "module": "--module",
    "rho": "--rho",
    "twist": "--twist",
    "n_random": "--random",
    "checks": "--check",
}
READS = {
    "lemma21": ("module", "n_random"),
    "lemma22": ("n_random",),
    "corrpro": ("depth", "module", "rho", "twist"),
    "presentation": ("depth", "module", "rho", "twist"),
    "cogtri": ("module", "twist"),
    "hecke": ("n_random", "checks"),
    "all": ("depth", "module", "rho", "twist", "n_random", "checks"),
    "reduce": ("depth", "module"),
}


@dataclass
class RunConfig:
    """Validated knobs of one verification run."""

    command: str
    p: int
    e: int = 1
    depth: int = 4
    seed: Optional[int] = None
    module: str = "all"
    rho: str = "w0"
    twist: int = 1
    n_random: int = 0
    checks: str = ",".join(HECKE_CHECKS)
    out: Optional[str] = None
    count: int = 1

    def validate(self) -> None:
        if self.command not in READS:
            raise ValueError(f"unknown command {self.command!r}")
        reads = READS[self.command]
        for field, flag in FLAGS.items():
            if field not in reads and getattr(self, field) != getattr(RunConfig, field):
                raise ValueError(f"{self.command} does not read {flag}")
        RingSpec(self.p, self.e)  # refuses an unsupported p or e
        if self.command in FIELD_ONLY and self.e != 1:
            raise ValueError(f"{self.command} runs over F_p only: e must be 1")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in 1..{MAX_DEPTH}")
        if self.n_random < 0:
            raise ValueError("random must be >= 0")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        checks = self.checks.split(",")
        if "checks" in reads and not set(checks) <= set(HECKE_CHECKS):
            raise ValueError(f"--check takes names from {','.join(HECKE_CHECKS)}")
        if self.command == "hecke" and self.n_random and (self.e != 1 or "vytastra" not in checks):
            raise ValueError("hecke draws random modules only for vytastra at e = 1")
        if not self.module:
            raise ValueError("empty module selection")
        if self.command == "reduce" and self.module == "all":
            raise ValueError("reduce expects a single module")
        parse_rho(self.rho)
        if self.twist % self.p == 0:
            raise ValueError("twist must be a unit mod p")
        randomized = self.command in ("lemma21", "lemma22", "all", "reduce") or (
            self.command == "hecke" and self.n_random > 0
        )
        if randomized and self.seed is None:
            raise ValueError("a seed is mandatory for any randomized run")
        if not randomized and self.seed is not None:
            raise ValueError(f"{self.command} draws nothing at random here and does not read --seed")

    def echo(self) -> dict:
        return {
            "command": self.command,
            "p": self.p,
            "e": self.e,
            "depth": self.depth,
            "seed": self.seed,
            "module": self.module,
            "rho": self.rho,
            "twist": self.twist,
            "random": self.n_random,
            "checks": self.checks,
            "count": self.count,
        }


def _tree_reports(cfg: RunConfig, mods: list[GModule], lemmas: tuple[str, ...]) -> list[LemmaReport]:
    """Every module's report of the first lemma, then of the next."""
    per_module = [tree_reports(W, cfg.depth, cfg.rho, cfg.twist, lemmas) for W in mods]
    return [reps[i] for i in range(len(lemmas)) for reps in per_module]


def run_suite(cfg: RunConfig) -> dict:
    """Execute one verification command and assemble the report envelope."""
    cfg.validate()
    t0 = time.monotonic()
    seed = cfg.seed if cfg.seed is not None else 0
    checks = tuple(cfg.checks.split(","))
    # one build of the selected catalog modules serves every suite that reads --module
    mods = select_modules(cfg.p, 1, cfg.module) if "module" in READS[cfg.command] else []
    if cfg.command == "lemma21":
        reports = lemma21_suite(cfg.p, mods, seed, cfg.n_random)
    elif cfg.command == "lemma22":
        reports = lemma22_suite(cfg.p, cfg.e, seed, cfg.n_random)
    elif cfg.command in ("corrpro", "presentation", "cogtri"):
        reports = _tree_reports(cfg, mods, (cfg.command,))
    elif cfg.command == "hecke":
        reports = hecke_suite(cfg.p, cfg.e, checks, seed, cfg.n_random)
    else:  # "all": validate() refused unknown commands, and reduce runs through _cmd_reduce
        reports = [
            *lemma21_suite(cfg.p, mods, seed, cfg.n_random),
            *lemma22_suite(cfg.p, cfg.e, seed, cfg.n_random),
            *_tree_reports(cfg, mods, ("corrpro", "presentation", "cogtri")),
            *hecke_suite(cfg.p, cfg.e, checks, seed, min(cfg.n_random, 5)),
        ]
    return {
        "tool": "treelab",
        "version": __version__,
        "config": cfg.echo(),
        "reports": [r.to_dict() for r in reports],
        "aggregate": aggregate_status(reports),
        "elapsed_s": time.monotonic() - t0,
    }


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fail_summary(doc: dict) -> None:
    for rep in doc["reports"]:
        if rep["status"] == FAIL:
            print("FAILED: " + json.dumps(rep, sort_keys=True), file=sys.stderr)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command=args.suite,
        p=args.p,
        e=args.e,
        depth=args.depth,
        seed=args.seed,
        module=args.module,
        rho=args.rho,
        twist=args.twist,
        n_random=args.random,
        checks=args.check,
        out=args.json,
    )
    doc = run_suite(cfg)
    _emit(doc, cfg.out)
    if doc["aggregate"] != PASS:
        _fail_summary(doc)
        return 1
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        command="reduce",
        p=args.p,
        depth=args.depth,
        seed=args.seed,
        module=args.module,
        count=args.count,
        out=args.json,
    )
    cfg.validate()
    (W,) = select_modules(cfg.p, 1, cfg.module)
    cc = build_complex(W, cfg.depth)
    rng = np.random.default_rng(cfg.seed)
    runs = []
    for i in range(cfg.count):
        c = sample_fixed_class(cc, rng)
        w, B = reduce_chain(cc, c)
        lifted = np.zeros(cc.dim0, dtype=np.int64)
        lifted[: cc.w] = w
        exact = bool(np.array_equal((lifted + cc.boundary_rows(B)[0]) % cc.ring.modulus, c))
        runs.append(
            {
                "index": i,
                "reduced_vector": [int(x) for x in w],
                "in_edge_image": bool(cc.spec.inv_upper.contains(w)),
                "certificate_exact": exact,
                "certificate_support": int(np.count_nonzero(B)),
            }
        )
    doc = {
        "tool": "treelab",
        "version": __version__,
        "config": cfg.echo(),
        "runs": runs,
        "aggregate": PASS
        if all(r["certificate_exact"] and r["in_edge_image"] for r in runs)
        else FAIL,
    }
    _emit(doc, cfg.out)
    return 0 if doc["aggregate"] == PASS else 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.action == "emit":
        doc = emit_catalog(args.p, args.e, args.out)
        if not args.out:
            print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    mods = builtin_catalog(args.p, args.e)
    for m in mods:
        print(f"{m.name}\trank {m.rank}\tp={args.p} e={args.e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treelab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"treelab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        choices=["lemma21", "lemma22", "corrpro", "presentation", "cogtri", "hecke", "all"],
    )
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--e", type=int, default=1)
    ver.add_argument("--depth", type=int, default=4)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--module", default="all", help="module name or 'all'")
    ver.add_argument("--rho", default="w0", help="gluing choice: w0 | twist:K | scalar:K")
    ver.add_argument("--twist", type=int, default=1, help="unit twist of the cyclic generator")
    ver.add_argument("--random", type=int, default=0, help="number of seeded random instances")
    ver.add_argument("--check", default=RunConfig.checks, help="hecke checks (csv)")
    ver.add_argument("--json", default=None, help="write the report to this path")
    ver.set_defaults(func=_cmd_verify)

    red = sub.add_parser("reduce", help="reduce seeded fixed classes to edge vectors")
    red.add_argument("--p", type=int, required=True)
    red.add_argument("--depth", type=int, required=True)
    red.add_argument("--module", default="jbar")
    red.add_argument("--seed", type=int, required=True)
    red.add_argument("--count", type=int, default=1)
    red.add_argument("--json", default=None)
    red.set_defaults(func=_cmd_reduce)

    cat = sub.add_parser("catalog", help="emit or list the built-in module catalog")
    cat.add_argument("action", choices=["emit", "list"])
    cat.add_argument("--p", type=int, required=True)
    cat.add_argument("--e", type=int, default=1)
    cat.add_argument("--out", default=None)
    cat.set_defaults(func=_cmd_catalog)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        parser.exit(2, f"treelab: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
