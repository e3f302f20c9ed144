"""Command-line front end: config handling, batteries, artifacts, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsedom import cli, dyadic, sparse
from sparsedom.cli import (
    COMMANDS,
    ConfigError,
    main,
    parse_config_text,
    run,
)
from sparsedom.dyadic import Cube, Grid, function_from_json, grid_norm
from sparsedom.maximal import scalar_maximal
from sparsedom.spaces import AtomicMeasure, LebesgueSpace
from sparsedom.sparse import (
    StoppingFailure,
    family_from_json,
    family_to_json,
    optimal_sparse_form,
    stopping_domination,
)

from oracles import (
    check_certificate_sets,
    cz_decompose_walk,
    knapsack_picks_per_input,
    stopping_domination_walk,
    verify_sparse_walk,
)


class TestConfigParsing:
    def test_values_comments_and_blanks(self):
        text = "\n".join(
            [
                "# comment",
                "dim = 2",
                "",
                "eta = 0.25",
                "shifts = true",
                "s = inf",
                "label = fast",
            ]
        )
        cfg = parse_config_text(text)
        assert cfg == {
            "dim": 2,
            "eta": 0.25,
            "shifts": True,
            "s": float("inf"),
            "label": "fast",
        }

    def test_bad_line_names_its_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("dim = 1\nnonsense")

    def test_unknown_key_rejected_at_run(self):
        with pytest.raises(ConfigError, match="unknown config keys: label"):
            run("exponents", {"label": "fast"})


class TestValidation:
    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            run("bogus")

    def test_dim_must_be_supported(self):
        with pytest.raises(ConfigError, match="dim must be 1 or 2"):
            run("cz", {"dim": 3})

    def test_depth_cap_by_dimension(self):
        with pytest.raises(ConfigError, match=r"depth for dim 2 must be in \[0, 6\], got 7"):
            run("cz", {"dim": 2, "depth": 7})

    def test_equivalence_certificate_depth_named(self):
        # eta = 1/256 at depth 12 needs certificate cells at depth 20, past
        # the d=1 resolution cap; cz certifies no family and runs
        with pytest.raises(ConfigError, match="certificate depth 20"):
            run("equivalence", {"depth": 12, "eta": 0.00390625})
        run("cz", {"depth": 12, "eta": 0.00390625, "trials": 1})

    def test_equivalence_runs_past_eight_cells(self):
        rep = run("equivalence", {"dim": 1, "depth": 8, "trials": 2})
        assert rep["passed"]

    def test_eta_window_and_resolution(self):
        with pytest.raises(ConfigError, match=r"eta must be in \(0, 1\), got 1.5"):
            run("cz", {"eta": 1.5})
        with pytest.raises(ConfigError, match="dyadic rational"):
            run("equivalence", {"eta": 0.3})

    def test_exponent_domain_surfaces_as_config_error(self):
        # p = r breaks the transfer exponent's open-range precondition
        with pytest.raises(ConfigError):
            run("exponents", {"p": 1.0, "r": 1.0})

    def test_s_must_exceed_q(self):
        with pytest.raises(ConfigError, match="need s > q"):
            run("transfer", {"q": 2.0, "s": 2.0})

    def test_dim_rejects_booleans(self):
        with pytest.raises(ConfigError, match="dim must be 1 or 2, got True"):
            run("cz", {"dim": True})

    def test_q_must_be_positive(self):
        for command in ("transfer", "exponents", "all"):
            for q in (0, -1.0):
                with pytest.raises(ConfigError, match=rf"q must be in \(0, inf\), got {q}"):
                    run(command, {"q": q})

    def test_transfer_certificate_depth_cap_named(self):
        # depth 6 plus the 4 extra levels eta = 1/256 needs in d=2 passes 9
        with pytest.raises(ConfigError, match="certificate depth 10 exceeds the d=2"):
            run("transfer", {"dim": 2, "depth": 6, "eta": 0.00390625})


class TestReportShape:
    def test_schema_and_config_encoding(self):
        rep = run("exponents")
        assert rep["schema"] == 1
        assert rep["command"] == "exponents"
        assert rep["config"]["s"] == "inf"
        assert rep["passed"] is True
        json.dumps(rep)

    def test_every_check_has_verdict_fields(self):
        rep = run("cz", {"trials": 3})
        for check in rep["checks"]:
            assert set(("name", "passed", "detail")) <= set(check)

    def test_all_concatenates_every_battery(self):
        total = sum(
            len(run(c, {"trials": 2})["checks"]) for c in COMMANDS if c != "all"
        )
        rep = run("all", {"trials": 2})
        assert len(rep["checks"]) == total

    def test_replay_is_bit_exact(self):
        a = json.dumps(run("all", {"trials": 3}), sort_keys=True)
        b = json.dumps(run("all", {"trials": 3}), sort_keys=True)
        assert a == b


class TestBatteries:
    def test_exponents_pins_gamma_two(self):
        rep = run("exponents")
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["transfer_exponent"]["detail"] == "gamma = 2.0"
        assert by_name["pinned_identity_case"]["passed"]
        assert by_name["composition_identity"]["passed"]
        assert by_name["classical_sharp_exponents"]["passed"]

    def test_equivalence_reports_max_ratio_and_family(self):
        rep = run("equivalence", {"trials": 5})
        assert rep["passed"]
        by_name = {c["name"]: c for c in rep["checks"]}
        top = by_name["equivalence_ratio_at_most_eight"]
        assert 1.0 <= top["max_ratio"] <= 8.0
        fam = family_from_json(json.dumps(top["maximizing_family"]))
        assert fam.check_certificate()
        assert by_name["greedy_captures_quarter"]["min_ratio"] >= 0.25

    def test_cz_margins_within_one(self):
        rep = run("cz", {"trials": 10})
        assert rep["passed"]
        for check in rep["checks"]:
            assert check["worst_margin"] <= 1.0

    def test_stopping_constants_stable(self):
        rep = run("stopping")
        assert rep["passed"]
        by_name = {c["name"]: c for c in rep["checks"]}
        stable = by_name["stopping_constant_stable_in_atoms"]
        assert stable["spread"] <= 2.0
        assert all(row["c_stop"] >= 1.0 for row in stable["table"])

    def test_weights_unit_constant_and_envelope(self):
        rep = run("weights")
        assert rep["passed"]
        by_name = {c["name"]: c for c in rep["checks"]}
        table = by_name["weighted_maximal_envelope"]["table"]
        assert table[0]["a"] == 0.0
        assert np.isclose(table[0]["constant"], 1.0)
        for row in table:
            assert row["ratio"] <= row["bound"] * (1 + 1e-9)

    def test_weights_accepts_shifted_lattices(self):
        assert run("weights", {"shifts": True})["passed"]

    def test_transfer_models_all_pass(self):
        rep = run("transfer", {"trials": 8})
        assert rep["passed"]
        names = [c["name"] for c in rep["checks"]]
        assert names == [
            "transfer_haar_l2",
            "transfer_sparse_l2",
            "transfer_sparse_pair",
        ]
        for check in rep["checks"]:
            assert check["slope"] <= 0.05
            assert check["scalar"]["passed"]

    def test_tiny_eta_breaks_upper_bound_honestly(self):
        # a very loose sparseness constraint inflates 1/eta faster than the
        # best form can grow, so the normalized ratio escapes [1, 8]
        eta = 1.0 / 256.0
        rep = run("equivalence", {"eta": eta, "trials": 3})
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["equivalence_ratio_at_least_one"]["passed"]
        assert not by_name["equivalence_ratio_at_most_eight"]["passed"]
        assert not rep["passed"]
        # the embedded witness replays to the reported ratio exactly
        case = by_name["equivalence_ratio_at_most_eight"]["failing_case"]
        grid = Grid(1, 2)
        fs = [function_from_json(json.dumps(p))[1] for p in case["fs"]]
        rs = [float(r) for r in case["rs"]]
        value, _ = optimal_sparse_form(fs, rs, grid, mode="exact", eta=eta)
        mnorm = grid_norm(grid, scalar_maximal(grid, fs, rs), 1.0)
        assert np.isclose(case["ratio"], mnorm / (eta * value), rtol=1e-12)

    def test_greedy_case_replays_its_own_share(self):
        # the case dumped for greedy_captures_quarter is the trial with the
        # smallest greedy/exact share, not the one with the smallest ratio
        eta = 1.0 / 32.0
        rep = run("equivalence", {"depth": 3, "eta": eta})
        check = {c["name"]: c for c in rep["checks"]}["greedy_captures_quarter"]
        assert not check["passed"] and check["min_ratio"] < 0.25
        case = check["failing_case"]
        grid = Grid(1, 3)
        fs = [function_from_json(json.dumps(p))[1] for p in case["fs"]]
        exact, _ = optimal_sparse_form(fs, case["rs"], grid, mode="exact", eta=eta)
        greedy, _ = optimal_sparse_form(fs, case["rs"], grid, mode="greedy", eta=eta)
        assert greedy / exact == check["min_ratio"]


class TestMainEntry:
    def test_precondition_failures_exit_two_with_names(self, tmp_path, capsys):
        argv = ["transfer", "--dim", "2", "--depth", "6", "--eta", "0.00390625"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "certificate depth 10" in capsys.readouterr().err
        cfg = tmp_path / "bool.cfg"
        cfg.write_text("dim = true\n")
        assert main(["cz", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "dim must be 1 or 2, got True" in capsys.readouterr().err
        cfg.write_text("q = 0\n")
        assert main(["transfer", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "q must be in (0, inf), got 0.0" in capsys.readouterr().err
        assert not list(tmp_path.glob("report_*.json"))

    def test_exponents_end_to_end(self, tmp_path, capsys):
        code = main(["exponents", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] transfer_exponent: gamma = 2.0" in out
        assert "4/4 checks passed" in out
        rep = json.loads((tmp_path / "report_exponents.json").read_text())
        assert rep["schema"] == 1
        csv_text = (tmp_path / "exponents_transfer_exponent.csv").read_text()
        assert csv_text.splitlines()[0] == "quantity,value"
        assert "transfer_gamma,2.0" in csv_text

    def test_library_precondition_exits_two_without_traceback(self, monkeypatch, tmp_path, capsys):
        def refuse(command, config=None):
            raise ValueError("certificate depth 12 exceeds the d=1 resolution cap")

        monkeypatch.setattr(cli, "run", refuse)
        assert main(["stopping", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "precondition error: certificate depth 12 exceeds the d=1 resolution cap\n"
        assert not list(tmp_path.iterdir())

    def test_stopping_failure_exits_one_with_its_state(self, monkeypatch, tmp_path, capsys):
        state = {"c_stop": 2097152.0, "rs": [1.0], "q": 1.0, "depth": 4}

        def diverge(command, config=None):
            raise StoppingFailure("stopping constant failed to stabilize", state)

        monkeypatch.setattr(cli, "run", diverge)
        assert main(["stopping", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stopping failure: stopping constant failed to stabilize")
        assert json.loads(err.split("state ", 1)[1]) == state
        assert not list(tmp_path.iterdir())

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["bogus"]) == 2
        capsys.readouterr()

    def test_config_error_exits_two(self, tmp_path, capsys):
        code = main(["equivalence", "--depth", "12", "--eta", "0.00390625", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "certificate depth 20" in err
        assert not (tmp_path / "report_equivalence.json").exists()

    def test_failing_run_exits_one_and_dumps_case(self, tmp_path, capsys):
        code = main(
            [
                "equivalence",
                "--eta",
                "0.00390625",
                "--trials",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] equivalence_ratio_at_most_eight" in out
        payload = json.loads(
            (tmp_path / "failing_equivalence_ratio_at_most_eight.json").read_text()
        )
        assert payload["command"] == "equivalence"
        assert payload["config"]["eta"] == 0.00390625
        assert payload["case"]["fs"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 2\nseed = 7\n")
        code = main(
            [
                "cz",
                "--config",
                str(cfg),
                "--seed",
                "9",
                "--out",
                str(tmp_path / "reports"),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rep = json.loads((tmp_path / "reports" / "report_cz.json").read_text())
        assert rep["config"]["trials"] == 2  # file applies
        assert rep["config"]["seed"] == 9  # flag wins over file

    def test_out_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "via_env"
        monkeypatch.setenv("SPARSEDOM_OUT", str(target))
        monkeypatch.chdir(tmp_path)
        assert main(["exponents"]) == 0
        capsys.readouterr()
        assert (target / "report_exponents.json").exists()

    def test_out_dir_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "via_cfg"
        cfg.write_text(f"out = {out}\n")
        assert main(["exponents", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (out / "report_exponents.json").exists()

    def test_out_flag_drops_config_out_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_cfg'}\n")
        target = tmp_path / "from_flag"
        assert main(["exponents", "--config", str(cfg), "--out", str(target)]) == 0
        capsys.readouterr()
        rep = json.loads((target / "report_exponents.json").read_text())
        assert "out" not in rep["config"]
        assert not (tmp_path / "from_cfg").exists()

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = main(["cz", "--config", str(tmp_path / "nope.cfg")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read" in err


class TestFailingCases:
    """A record carries ``failing_case`` exactly when it failed and has a
    witness, and that case is an input on which this very check fails."""

    @pytest.mark.parametrize(
        "command, config, failing",
        [
            ("all", {}, set()),
            ("equivalence", {"depth": 3, "eta": 1 / 32}, {"equivalence_ratio_at_most_eight", "greedy_captures_quarter"}),
            ("transfer", {"seed": 3}, {"transfer_haar_l2"}),
        ],
    )
    def test_cases_and_files_exactly_for_failed_checks(self, tmp_path, command, config, failing):
        report = run(command, config)
        assert {c["name"] for c in report["checks"] if not c["passed"]} == failing
        assert {c["name"] for c in report["checks"] if "failing_case" in c} == failing
        written = cli._write_artifacts(report, tmp_path)
        dumped = {f"failing_{name}.json" for name in failing}
        assert {p.name for p in tmp_path.glob("failing_*.json")} == dumped
        assert {p.name for p in written} >= dumped

    def test_each_cz_margin_keeps_its_first_failing_trial(self, monkeypatch):
        # trial 1 breaks the averaged-part margin, trial 2 the flat-part margin
        lams = []

        def broken(grid, fs, rs, lam):
            parts = sparse.cz_decompose(grid, fs, rs, lam)
            lams.append(lam)
            if len(lams) == 1:
                return dataclasses.replace(parts, averaged=[a + 10.0 for a in parts.averaged])
            if len(lams) == 2:
                return dataclasses.replace(parts, flat=[f + 10.0 for f in parts.flat])
            return parts

        monkeypatch.setattr(cli, "cz_decompose", broken)
        by_name = {c["name"]: c for c in run("cz", {"trials": 3})["checks"]}
        assert by_name["cz_averaged_part_doubling_bound"]["failing_case"]["lam"] == lams[0]
        assert by_name["cz_flat_part_below_threshold"]["failing_case"]["lam"] == lams[1]
        assert by_name["cz_bad_level_set_small"]["passed"]
        assert "failing_case" not in by_name["cz_bad_level_set_small"]

    def test_stopping_checks_keep_their_own_cases(self, monkeypatch):
        # run 1 loses its witness sets, run 2 its pointwise bound, run 3 its
        # constant; the spread fails across runs, so it carries no case
        runs = []

        def broken(grid, Fs, rs, q, spaces):
            cert = sparse.stopping_domination(grid, Fs, rs, q, spaces)
            runs.append(cert)
            if len(runs) == 1:
                return dataclasses.replace(cert, family=sparse.SparseFamily.from_cubes(cert.family.cubes))
            if len(runs) == 2:
                return dataclasses.replace(cert, pointwise_ok=False)
            if len(runs) == 3:
                return dataclasses.replace(cert, c_stop=10 * cert.c_stop)
            return cert

        monkeypatch.setattr(cli, "stopping_domination", broken)
        by_name = {c["name"]: c for c in run("stopping")["checks"]}
        family = by_name["stopping_families_half_sparse"]["failing_case"]
        pointwise = by_name["stopping_pointwise_domination"]["failing_case"]
        assert (family["case"], family["n"]) == ("l2", 2)
        assert (pointwise["case"], pointwise["n"]) == ("l2", 8)
        spread = by_name["stopping_constant_stable_in_atoms"]
        assert not spread["passed"] and "failing_case" not in spread


def test_cli_import_loads_no_scipy():
    # sparseness is decided by a tree pass; scipy is a test-only dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, sparsedom.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "command, dim, depth", [("stopping", 1, 8), ("stopping", 2, 4), ("cz", 2, 4)]
)
def test_reports_match_the_stack_walks(monkeypatch, command, dim, depth, seed):
    """The level sweeps leave the report bytes of the old stack walks."""
    config = {"dim": dim, "depth": depth, "seed": seed}
    swept = json.dumps(run(command, config), indent=2)
    for module in (sparse, cli):
        monkeypatch.setattr(module, "stopping_domination", stopping_domination_walk)
        monkeypatch.setattr(module, "cz_decompose", cz_decompose_walk)
    assert json.dumps(run(command, config), indent=2) == swept


def test_cz_battery_builds_no_cubes(monkeypatch):
    """The cz battery reads the level arrays only, and its results hold
    their selections as level masks, with no view that builds cubes."""
    built, parts, cubes = [], [], sparse._cubes

    def counted(*args):
        built.append(args)
        return cubes(*args)

    def kept(*args):
        parts.append(sparse.cz_decompose(*args))
        return parts[-1]

    monkeypatch.setattr(sparse, "_cubes", counted)
    monkeypatch.setattr(cli, "cz_decompose", kept)
    run("cz", {"dim": 2, "depth": 4, "seed": 0})
    assert parts and not built
    assert not hasattr(parts[-1], "stopping_cubes") and len(parts[-1].selections) == 2


def test_sparse_families_build_no_cubes_until_read(monkeypatch):
    """The equivalence battery, both optimizer modes and the stopping
    recursion keep their families as level and index arrays, and the JSON
    writer reads those: no Cube is built or compared until ``cubes`` is
    read."""
    calls = {"init": 0, "eq": 0}
    init, eq = Cube.__init__, Cube.__eq__

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_eq(self, other):
        calls["eq"] += 1
        return eq(self, other)

    monkeypatch.setattr(Cube, "__init__", counted_init)
    monkeypatch.setattr(Cube, "__eq__", counted_eq)
    for dim, depth in [(1, 6), (2, 3)]:
        run("equivalence", {"dim": dim, "depth": depth, "seed": 0})
    rng = np.random.default_rng(0)
    grid = Grid(1, 12)
    f = rng.lognormal(size=grid.cell_shape)
    exact = optimal_sparse_form([f], [1.0], grid)[1]
    greedy = optimal_sparse_form([f], [1.0], grid, mode="greedy")[1]
    grid = Grid(2, 4)
    F = rng.lognormal(sigma=2.0, size=grid.cell_shape + (2,))
    cert = stopping_domination(grid, [F], [1.0], 1.0, [LebesgueSpace(2.0, AtomicMeasure.unit(2))])
    text = family_to_json(exact)
    assert len(exact.level) > 1000 and len(greedy.level) > 1 and len(cert.family.level) > 1
    assert calls == {"init": 0, "eq": 0}
    # each read of the view builds one cube per family cube
    assert len(exact.cubes) == len(exact.level) == calls["init"]
    assert family_from_json(text).cubes == exact.cubes


@pytest.mark.parametrize(
    "command, config",
    [
        ("stopping", {"dim": 1, "depth": 12}),
        ("stopping", {"dim": 2, "depth": 6}),
        ("cz", {"dim": 2, "depth": 4}),
        ("equivalence", {"dim": 1, "depth": 3}),
        ("weights", {"dim": 2, "depth": 3, "shifts": True}),
        ("transfer", {"dim": 1, "depth": 4}),
        ("transfer", {"dim": 2, "depth": 3}),
    ],
    ids=["stopping-d1", "stopping-d2", "cz", "equivalence", "weights-shifts", "transfer-d1", "transfer-d2"],
)
def test_batteries_build_cubes_only_for_the_transfer_chain(monkeypatch, command, config):
    """The batteries compute with level and index arrays: the only Cube
    objects built are the transfer battery's input chain, one per level."""
    calls = []
    init = Cube.__init__
    monkeypatch.setattr(Cube, "__init__", lambda self, *args: calls.append(args) or init(self, *args))
    run(command, {**config, "seed": 3})
    assert len(calls) == (config["depth"] + 1 if command == "transfer" else 0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "command, dim, depth",
    [("stopping", 1, 6), ("stopping", 2, 3), ("cz", 2, 3), ("equivalence", 1, 3), ("equivalence", 2, 2)],
)
def test_stopping_cz_equivalence_reports_equal_the_oracle_paths(monkeypatch, command, dim, depth, seed):
    """The level-array verification, certificate check, stopping audit and
    batched knapsack leave the reports of the per-cube walks, loops, set
    checks and single-input knapsacks."""
    config = {"dim": dim, "depth": depth, "seed": seed}
    fast = run(command, config)
    for module in (sparse, cli):
        monkeypatch.setattr(module, "verify_sparse", verify_sparse_walk)
        monkeypatch.setattr(module, "stopping_domination", stopping_domination_walk)
    # the optimizers pack their level and index arrays without verify_sparse
    monkeypatch.setattr(sparse, "_pack", lambda level, index, eta: verify_sparse_walk(sparse._cubes(level, index), eta))
    monkeypatch.setattr(sparse.SparseFamily, "check_certificate", check_certificate_sets)
    # and solve the knapsack of every trial alone
    monkeypatch.setattr(sparse, "_knapsack_picks", knapsack_picks_per_input)
    assert run(command, config) == fast


def test_equivalence_builds_one_pyramid_per_trial(bind_everywhere):
    """The exact optimum, the greedy family and ||M||_1 of one trial read one
    level_products pyramid: one call per (rs, trial)."""
    calls, products = [], dyadic.level_products
    bind_everywhere(products, lambda g, fs, rs: calls.append(tuple(rs)) or products(g, fs, rs))
    run("equivalence", {"dim": 1, "depth": 3, "trials": 4, "seed": 0})
    assert calls == [rs for rs in [(1.0,), (1.0, 1.0), (2.0, 1.0)] for _ in range(4)]


def test_equivalence_solves_all_trials_of_a_tuple_in_one_knapsack(monkeypatch):
    """The exact optimum of every trial of one exponent tuple comes from one
    knapsack call over the stacked trials: one call per tuple, each with the
    tuple's four trials on its input axis."""
    calls, picks = [], sparse._knapsack_picks
    monkeypatch.setattr(sparse, "_knapsack_picks", lambda c, d, eta: calls.append(c[0].shape) or picks(c, d, eta))
    run("equivalence", {"dim": 1, "depth": 3, "trials": 4, "seed": 0})
    assert calls == [(1, 4)] * 3
