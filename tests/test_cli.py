"""CLI surfaces, exit codes, report determinism."""

import json

import pytest

from treelab import catalog, halftree
from treelab.catalog import builtin_catalog
from treelab.cli import RunConfig, build_parser, main, run_suite
from treelab.grouprep import invariants


def strip_times(doc):
    """Drop wall-clock fields; everything else must be byte-stable."""

    def clean(x):
        if isinstance(x, dict):
            return {k: clean(v) for k, v in x.items() if k != "elapsed_s"}
        if isinstance(x, list):
            return [clean(v) for v in x]
        return x

    return clean(doc)


def test_verify_all_p2_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify", "all", "--p", "2", "--e", "1", "--depth", "4",
            "--seed", "7", "--random", "3", "--json", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate"] == "pass"
    assert doc["tool"] == "treelab"
    assert doc["reports"]


def test_corrpro_reports_expected_dimension(capsys):
    code = main(["verify", "corrpro", "--p", "3", "--depth", "4", "--module", "jbar"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    (rep,) = doc["reports"]
    assert rep["dims"]["dim_h0_fixed"] == 4


def test_replay_determinism():
    cfg = RunConfig(command="lemma21", p=3, seed=9, n_random=4)
    a = run_suite(cfg)
    b = run_suite(RunConfig(command="lemma21", p=3, seed=9, n_random=4))
    assert json.dumps(strip_times(a), sort_keys=True) == json.dumps(strip_times(b), sort_keys=True)


def test_jobs_flag_is_gone():
    # verify all runs its suites one after another; --jobs is not a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--p", "2", "--depth", "1", "--seed", "1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "jobs" not in RunConfig(command="all", p=2, seed=1).echo()


def test_seed_required_for_randomized_runs():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma21", "--p", "3"])
    assert exc.value.code == 2


def test_validation_bounds():
    for bad in (
        RunConfig(command="corrpro", p=11),
        RunConfig(command="corrpro", p=3, e=4),
        RunConfig(command="corrpro", p=3, depth=9),
        RunConfig(command="corrpro", p=3, module=""),
        RunConfig(command="lemma21", p=3, seed=None),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_empty_module_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corrpro", "--p", "3", "--depth", "2", "--module", ""])
    assert exc.value.code == 2


def test_unknown_module_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corrpro", "--p", "3", "--depth", "2", "--module", "nope"])
    assert exc.value.code == 2


def test_reduce_command(tmp_path):
    out = tmp_path / "reduce.json"
    code = main(
        [
            "reduce", "--p", "3", "--depth", "3", "--module", "jbar",
            "--seed", "5", "--count", "3", "--json", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["aggregate"] == "pass"
    assert len(doc["runs"]) == 3
    for run in doc["runs"]:
        assert run["certificate_exact"] and run["in_edge_image"]


def test_catalog_emit_and_list(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["catalog", "emit", "--p", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = [m["name"] for m in doc["modules"]]
    assert names == ["trivial", "steinberg", "jbar", "ps:0", "ps:1"]
    assert main(["catalog", "list", "--p", "2"]) == 0
    listed = capsys.readouterr().out
    assert "jbar" in listed and "steinberg" in listed


def test_hecke_cli_subset_of_checks(capsys):
    code = main(["verify", "hecke", "--p", "2", "--check", "dim,assoc"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    lemmas = {r["lemma"] for r in doc["reports"]}
    assert lemmas == {"hecke_dim", "jbar_star_invariants", "hecke_assoc"}


def test_all_runs_the_hecke_suite_at_p7(capsys):
    code = main(["verify", "all", "--p", "7", "--depth", "1", "--seed", "1", "--check", "dim"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["lemma"] for r in doc["reports"]][-2:] == ["hecke_dim", "jbar_star_invariants"]


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "bogus", "--p", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "presentation", "--p", "3", "--depth", "2", "--rho", "bogus"],
        ["verify", "corrpro", "--p", "3", "--depth", "2", "--rho", "twist:x"],
        ["verify", "cogtri", "--p", "3", "--twist", "3"],
        ["verify", "corrpro", "--p", "3", "--depth", "2", "--e", "2"],
        ["verify", "lemma21", "--p", "3", "--e", "3", "--seed", "1"],
        ["reduce", "--p", "3", "--depth", "2", "--seed", "1", "--module", ""],
        ["reduce", "--p", "3", "--depth", "2", "--seed", "1", "--module", "all"],
        ["verify", "cogtri", "--p", "3", "--rho", "scalar:1", "--depth", "5"],
        ["verify", "hecke", "--p", "2", "--module", "nope", "--check", "dim"],
        ["verify", "lemma22", "--p", "3", "--seed", "1", "--module", "jbar"],
        ["verify", "corrpro", "--p", "3", "--depth", "2", "--random", "3"],
        ["verify", "presentation", "--p", "3", "--depth", "2", "--check", "dim"],
        ["verify", "corrpro", "--p", "3", "--depth", "2", "--module", "jbar", "--seed", "5"],
        ["verify", "lemma21", "--p", "3", "--seed", "1", "--jobs", "2"],
        ["verify", "hecke", "--p", "11", "--check", "dim"],
        ["verify", "hecke", "--p", "3", "--check", "nope"],
        ["verify", "hecke", "--p", "3", "--check", "dim,dimm"],
        ["verify", "all", "--p", "2", "--depth", "1", "--seed", "1", "--check", ","],
        ["verify", "hecke", "--p", "2", "--e", "2", "--seed", "1", "--random", "3"],
        ["verify", "hecke", "--p", "3", "--check", "dim", "--seed", "1", "--random", "3"],
        ["verify", "lemma21", "--p", "3", "--seed", "1", "--random", "-3"],
        ["reduce", "--p", "3", "--depth", "2", "--seed", "1", "--count", "0"],
        ["reduce", "--p", "3", "--depth", "2", "--seed", "1", "--count", "-5"],
        ["catalog", "list", "--p", "7", "--e", "4"],
        ["catalog", "emit", "--p", "7", "--e", "30"],
        ["verify", "cogtri", "--p", "0"],
    ],
)
def test_ignored_or_invalid_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_catalog_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma21", "--p", "3", "--seed", "1", "--catalog", "jbar"])
    assert exc.value.code == 2
    assert "catalog" not in RunConfig(command="lemma21", p=3).echo()


def test_lemma21_reads_module(capsys):
    assert main(["verify", "lemma21", "--p", "3", "--seed", "1", "--module", "jbar"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["lemma"] for r in doc["reports"]] == ["lemma21", "lemma21.min_generators"]
    assert {r["instance"]["module"] for r in doc["reports"]} == {"jbar"}


def test_lemma21_unknown_module_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma21", "--p", "3", "--seed", "1", "--module", "nope"])
    assert exc.value.code == 2


def test_verify_all_builds_each_complex_once(monkeypatch):
    calls, specs = [], []
    original, original_spec = halftree.build_complex, halftree.build_coeff_spec

    def counted(W, *args):
        calls.append(W.name)
        return original(W, *args)

    def counted_spec(W, *args):
        specs.append(W.name)
        return original_spec(W, *args)

    monkeypatch.setattr(halftree, "build_complex", counted)
    monkeypatch.setattr(halftree, "build_coeff_spec", counted_spec)
    doc = run_suite(RunConfig(command="all", p=3, depth=3, seed=1))
    assert doc["aggregate"] == "pass"
    # cogtri reads the spec of the same build as corrpro and presentation
    assert calls == specs == [W.name for W in builtin_catalog(3, 1)]


def test_verify_all_builds_the_catalog_once(monkeypatch):
    # lemma21 and the tree suites read the same selection; lemma22 and hecke read none
    calls = []
    original = catalog.builtin_catalog

    def counted(p, e):
        calls.append((p, e))
        return original(p, e)

    monkeypatch.setattr(catalog, "builtin_catalog", counted)
    doc = run_suite(RunConfig(command="all", p=3, depth=1, seed=1))
    assert doc["aggregate"] == "pass"
    assert calls == [(3, 1)]


@pytest.mark.parametrize("rho", ["twist:1", "scalar:1"])
def test_cogtri_reads_no_rho(rho):
    # cogtri under `verify all` runs on a complex glued by rho, and reports
    # as `verify cogtri` does, which always glues by w0
    for twist in (1, 2):
        alone = run_suite(RunConfig(command="cogtri", p=3, twist=twist))["reports"]
        every = run_suite(RunConfig(command="all", p=3, depth=1, seed=1, rho=rho, twist=twist))["reports"]
        assert strip_times([r for r in every if r["lemma"] == "cogtri"]) == strip_times(alone)


def test_tree_suites_run_at_the_envelope_corner():
    # p=7 D=6: dim C0 is 6.6 million for jbar; corrpro reads its fixed part
    # off the root path and presentation its rank off the tree basis
    p, D = 7, 6
    mods = builtin_catalog(p, 1)
    for lemma in ("corrpro", "presentation"):
        doc = run_suite(RunConfig(command=lemma, p=p, depth=D))
        assert doc["aggregate"] == "pass" and len(doc["reports"]) == len(mods)
        for W, rep in zip(mods, doc["reports"]):
            t = invariants(W, [W.group.lower_gen]).nrows
            assert rep["status"] == "pass" and rep["instance"]["module"] == W.name
            assert rep["dims"]["dim_c0"] == W.rank * sum(p**m for m in range(D + 1))
            assert rep["dims"]["dim_c1"] == t * sum(p ** (m + 1) for m in range(D))
            if lemma == "corrpro":
                assert rep["dims"]["dim_h0_fixed"] == rep["dims"]["dim_inv_upper"]
