"""Command-line front end: seeded check batteries with versioned reports.

Every subcommand runs a deterministic battery (the seed is part of the
config), prints one verdict line per check, and writes a ``schema: 1`` JSON
report plus CSV tables into the output directory.  A failed check whose
failure one input shows carries that input as ``failing_case`` and writes it
to ``failing_<check>.json``; replaying the case fails that same check.
Exit status: 0 when every check passes, 1 when a check fails or the stopping
constant never stabilizes, 2 when the config or a library call violates a
named precondition or the subcommand is unknown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from ._checks import EXPONENT, FINITE, UNIT, at_least, check, interval, need
from .dyadic import (
    MAX_DEPTH,
    Cube,
    Grid,
    function_to_json,
    grid_norm,
    level_products,
    shifted_grids,
)
from .maximal import _running_max, scalar_maximal
from .sparse import (
    SparseFamily,
    StoppingFailure,
    _optimize_form,
    certificate_depth,
    cz_decompose,
    family_to_json,
    stopping_domination,
    verify_sparse,
)
from .spaces import AtomicMeasure, LebesgueSpace, harmonic_exponent
from .transfer import HaarTransform, SparseOperator, vv_transfer_check
from .weights import (
    composed_transfer_exponent,
    ellt_exponent,
    encode_inf,
    maximal_weighted_exponent,
    muckenhoupt_constant,
    power_envelope,
    power_weight,
    transfer_exponent,
)

__all__ = ["ConfigError", "run", "main", "COMMANDS", "SCHEMA", "OUT_ENV"]

SCHEMA = 1
OUT_ENV = "SPARSEDOM_OUT"
COMMANDS = ("equivalence", "cz", "stopping", "weights", "exponents", "transfer", "all")

DEFAULTS: dict = {
    "dim": 1,
    "depth": 2,
    "shifts": False,
    "seed": 0,
    "trials": 25,
    "eta": 0.5,
    # exponent data (used by the exponents battery; flat so a config file
    # can override any of them with one key = value line)
    "m": 1,
    "r": 1.0,
    "s": math.inf,
    "q": 1.0,
    "p": 2.0,
}


class ConfigError(ValueError):
    """A named precondition on the config failed."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _parse_value(text: str):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("inf", "infinity"):
        return math.inf
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments skipped."""
    out = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value.strip())
    return out


def _field(cfg: dict, key: str, kind: type = int):
    """cfg[key] as ``kind``: int takes integers, float any number, and no bool."""
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, kind)):
        raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {v!r}")
    return kind(v)


def _validate(command: str, cfg: dict) -> None:
    """Raise ValueError naming the first key that breaks a precondition; a
    command's q, s, p, r and m are checked only when it reads them."""
    dim = cfg["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    depths = interval(0, MAX_DEPTH[dim], lo_closed=True, hi_closed=True)
    depth = check(f"depth for dim {dim}", _field(cfg, "depth"), depths)
    at_least("trials", _field(cfg, "trials"), 1)
    at_least("seed", _field(cfg, "seed"), 0)
    eta = check("eta", _field(cfg, "eta", float), UNIT)
    den = Fraction(eta).denominator
    if den & (den - 1) or den > 256:
        # sparseness certificates live on a dyadic refinement; a non-dyadic
        # or too-fine eta has no resolvable certificate depth
        raise ValueError(
            f"eta must be a dyadic rational with denominator at most 256, got {eta!r}"
        )
    if not isinstance(cfg["shifts"], bool):
        raise ValueError(f"shifts must be true or false, got {cfg['shifts']!r}")
    if command in ("transfer", "exponents", "all"):
        q = check("q", _field(cfg, "q", float), FINITE)
        s = check("s", _field(cfg, "s", float), EXPONENT)
        need("s", s, ">", "q", q)
    if command in ("exponents", "all"):
        m = at_least("m", _field(cfg, "m"), 1)
        transfer_exponent([_field(cfg, "p", float)] * m, q, [_field(cfg, "r", float)] * m, s)
    if command in ("equivalence", "transfer", "all"):
        # both batteries certify families with cubes down to ``depth``
        try:
            certificate_depth(dim, depth, eta)
        except ValueError as exc:
            raise ValueError(f"eta {eta!r} at depth {depth}: {exc}") from exc


def _plain(obj):
    """Recursively strip numpy scalar types so json.dumps always works."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return encode_inf(float(obj))
    return obj


# ---------------------------------------------------------------------------
# check batteries
# ---------------------------------------------------------------------------


def _positive_inputs(rng, grid: Grid, m: int) -> list[np.ndarray]:
    return [rng.uniform(0.25, 4.0, size=grid.cell_shape) for _ in range(m)]


def _record(name: str, passed, detail: str, witness=None, **extra) -> dict:
    """One check record: name, verdict, detail, then ``extra`` in order.  A
    failed check carries ``witness`` as its ``failing_case``: an input on
    which that very check fails, so replaying it reproduces the failure."""
    record = {"name": name, "passed": passed, "detail": detail, **extra}
    if witness is not None and not passed:
        record["failing_case"] = witness
    return record


def _equivalence_checks(cfg: dict) -> list[dict]:
    # ratio = ||M||_1 / (eta * best form): at least 1 for every eta by the
    # packing bound (the form never beats eta^{-1} times the maximal
    # integral), at most 8 on the eta = 1/2 suite
    grid = Grid(cfg["dim"], cfg["depth"])
    rng = np.random.default_rng(cfg["seed"])
    eta = float(cfg["eta"])
    min_ratio, max_ratio, min_greedy = math.inf, 0.0, math.inf
    worst_family, table = None, []
    high_case = low_case = greedy_case = None
    for rs in [(1.0,), (1.0, 1.0), (2.0, 1.0)]:
        case_max = 0.0
        inputs = [_positive_inputs(rng, grid, len(rs)) for _ in range(cfg["trials"])]
        # one pyramid per trial for the three, and one optimizer call per mode
        # for all trials; the running max overwrites a pyramid, so last
        pyramids = [level_products(grid, fs, rs) for fs in inputs]
        exact = _optimize_form(grid, pyramids, rs, "exact", eta)
        greedy = _optimize_form(grid, pyramids, rs, "greedy", eta)
        for trial, (fs, lp, (exact_val, exact_fam), (greedy_val, _)) in enumerate(zip(inputs, pyramids, exact, greedy)):
            mnorm = grid_norm(grid, _running_max(grid, lp), 1.0)
            ratio, raw = mnorm / (eta * exact_val), mnorm / exact_val
            witness = (rs, trial, fs, ratio, raw)  # serialized only if reported
            if ratio < min_ratio:
                min_ratio, low_case = ratio, witness
            if greedy_val / exact_val < min_greedy:
                min_greedy, greedy_case = greedy_val / exact_val, witness
            if ratio > max_ratio:
                max_ratio, worst_family, high_case = ratio, exact_fam, witness
            case_max = max(case_max, ratio)
        table.append({"rs": " ".join(str(r) for r in rs), "max_ratio": case_max})

    def case(witness):
        rs, trial, fs, ratio, raw = witness
        fjs = [json.loads(function_to_json(grid, f)) for f in fs]
        return dict(rs=list(rs), trial=trial, fs=fjs, ratio=ratio, raw_ratio=raw)

    return [
        _record(
            "equivalence_ratio_at_least_one",
            min_ratio >= 1.0 - 1e-9,
            f"min maximal/(eta*form) ratio {min_ratio:.6f} (needs >= 1)",
            case(low_case),
            min_ratio=float(min_ratio),
        ),
        _record(
            "equivalence_ratio_at_most_eight",
            max_ratio <= 8.0 + 1e-9,
            f"max maximal/(eta*form) ratio {max_ratio:.6f} (allows <= 8)",
            case(high_case),
            max_ratio=float(max_ratio),
            maximizing_family=json.loads(family_to_json(worst_family)),
            table=table,
        ),
        _record(
            "greedy_captures_quarter",
            min_greedy >= 0.25 - 1e-9,
            f"min greedy/exact {min_greedy:.6f} (needs >= 1/4)",
            case(greedy_case),
            min_ratio=float(min_greedy),
        ),
    ]


def _cz_checks(cfg: dict) -> list[dict]:
    grid = Grid(cfg["dim"], cfg["depth"])
    rng = np.random.default_rng(cfg["seed"])
    d, tol = grid.d, 1 + 1e-12
    # per check (flat, averaged, bad): the worst margin and its first failing trial
    worst, cases = [0.0, 0.0, 0.0], [None, None, None]
    for rs in [(1.0,), (1.0, 2.0)]:
        for _ in range(cfg["trials"]):
            fs = _positive_inputs(rng, grid, len(rs))
            lam = float(rng.uniform(0.3, 2.0))
            parts = cz_decompose(grid, fs, list(rs), lam)
            thrs = parts.component_thresholds
            flat = max(float(np.max(np.abs(fj))) / t for fj, t in zip(parts.flat, thrs))
            avg = max(
                float(np.max(np.abs(aj))) / (2 ** (d / rj) * t)
                for aj, rj, t in zip(parts.averaged, rs, thrs)
            )
            exceed = float(np.sum(np.abs(parts.bad) > lam)) * grid.cell_measure
            for k, margin in enumerate((flat, avg, exceed / (len(rs) / lam**parts.r))):
                worst[k] = max(worst[k], margin)
                if margin > tol and cases[k] is None:
                    fjs = [json.loads(function_to_json(grid, f)) for f in fs]
                    cases[k] = {"rs": list(rs), "lam": lam, "fs": fjs}
    names = (
        "cz_flat_part_below_threshold", "cz_averaged_part_doubling_bound", "cz_bad_level_set_small"
    )
    return [
        _record(name, m <= tol, f"worst margin {m:.6f} of 1", case, worst_margin=float(m))
        for name, m, case in zip(names, worst, cases)
    ]


def _stopping_checks(cfg: dict) -> list[dict]:
    grid = Grid(cfg["dim"], cfg["depth"])
    rng = np.random.default_rng(cfg["seed"])
    cases = [("l2", (1.0,), (2.0,), 1.0), ("l4_pair", (1.0, 1.0), (4.0, 4.0 / 3.0), 1.0)]
    spread, table = 0.0, []
    bad_family = bad_pointwise = None  # the first run failing each check
    for label, rs, ts, q in cases:
        consts = []
        for n in (2, 8):
            spaces = [LebesgueSpace(t, AtomicMeasure.unit(n)) for t in ts]
            Fs = [rng.lognormal(sigma=1.0, size=grid.cell_shape + (n,)) for _ in rs]
            cert = stopping_domination(grid, Fs, list(rs), q, spaces)
            good_family = cert.family.check_certificate()
            if not (good_family and cert.pointwise_ok):
                failing = {"case": label, "n": n, "family": json.loads(family_to_json(cert.family))}
                bad_family = bad_family or (None if good_family else failing)
                bad_pointwise = bad_pointwise or (None if cert.pointwise_ok else failing)
            consts.append(cert.c_stop)
            table.append({"case": label, "n": n, "c_stop": cert.c_stop, "cubes": len(cert.family.level)})
        spread = max(spread, max(consts) / min(consts))
    family_ok, pointwise_ok = bad_family is None, bad_pointwise is None
    return [
        _record(
            "stopping_families_half_sparse",
            family_ok,
            "flow verification and certificates hold"
            if family_ok
            else "a family failed verification",
            bad_family,
        ),
        _record(
            "stopping_pointwise_domination",
            pointwise_ok,
            "lattice maximal bounded on every selected cube"
            if pointwise_ok
            else "a cell ratio exceeded 1",
            bad_pointwise,
        ),
        _record(
            "stopping_constant_stable_in_atoms",
            spread <= 2.0 + 1e-9,
            f"constant spread {spread:.4f} across atom counts (allows <= 2)",
            spread=float(spread),
            table=table,
        ),
    ]


def _weights_checks(cfg: dict) -> list[dict]:
    grid = Grid(cfg["dim"], cfg["depth"])
    grids = shifted_grids(cfg["dim"], cfg["depth"]) if cfg["shifts"] else grid
    ps, rs, s = (2.0,), (1.0,), math.inf
    p = ps[0]
    gamma = maximal_weighted_exponent(ps, rs)
    first = np.zeros(grid.cell_shape)
    first[(0,) * grid.d] = 1.0
    consts, bests, table = [], [], []
    for a in (0.0, 0.15, 0.3, 0.45):
        w = power_weight(grid, a)
        const = muckenhoupt_constant([w], ps, rs, s, grids)
        best = 0.0
        for f in (np.ones(grid.cell_shape), 1.0 / w, first):
            # every input is nonzero and w > 0 on every cell, so den > 0
            den = grid_norm(grid, f, p, weight=w)
            num = grid_norm(grid, scalar_maximal(grid, [f], [rs[0]]), p, weight=w)
            best = max(best, num / den)
        consts.append(const)
        bests.append(best)
        table.append({"a": a, "constant": const, "ratio": best})
    C, slope = power_envelope(consts, bests, gamma)
    for row in table:
        row["bound"] = C * row["constant"] ** gamma
    return [
        _record(
            "unit_weight_has_constant_one",
            abs(consts[0] - 1.0) < 1e-12,
            f"constant at a=0 is {consts[0]:.12f}",
        ),
        _record(
            "weight_constants_at_least_one",
            all(c >= 1.0 - 1e-12 and math.isfinite(c) for c in consts),
            f"constants {['%.4f' % c for c in consts]}",
        ),
        _record(
            "weighted_maximal_envelope",
            slope <= gamma + 0.1,
            f"free slope {slope:.4f} against exponent {gamma} (allows {gamma + 0.1})",
            slope=float(slope),
            fitted_constant=float(C),
            table=table,
        ),
    ]


def _exponents_checks(cfg: dict) -> list[dict]:
    m = int(cfg["m"])
    r, s, q, p = (float(cfg[k]) for k in ("r", "s", "q", "p"))
    rs, ps = [r] * m, [p] * m
    gamma = transfer_exponent(ps, q, rs, s)
    pinned = transfer_exponent([2.0], 1.0, [1.0], math.inf)
    rng = np.random.default_rng(cfg["seed"])
    comp_bad = 0
    for _ in range(cfg["trials"] * 4):
        mm = int(rng.integers(1, 4))
        rr = list(rng.uniform(0.5, 3.0, size=mm))
        pp = [rj * u for rj, u in zip(rr, rng.uniform(1.2, 4.0, size=mm))]
        qq = harmonic_exponent(pp) * float(rng.uniform(0.3, 1.0))
        ss = math.inf if rng.random() < 0.5 else harmonic_exponent(pp) * float(rng.uniform(1.5, 4.0))
        direct = transfer_exponent(pp, qq, rr, ss)
        composed = composed_transfer_exponent(pp, qq, rr, ss)
        comp_bad += not np.isclose(direct, composed, rtol=1e-12)
    classical_bad = 0
    for pv in np.linspace(1.1, 6.0, 25):
        got = ellt_exponent([float(pv)], [1.0], 1.0, [2.0])
        classical_bad += not np.isclose(got, max(pv / (pv - 1.0), pv), rtol=1e-12)
    # _plain writes an infinite value as "inf"
    quantities = dict(transfer_gamma=gamma, pinned_identity_gamma=pinned, m=m, r=r, s=s, q=q, p=p)
    table = [{"quantity": k, "value": v} for k, v in quantities.items()]
    return [
        _record(
            "transfer_exponent",
            math.isfinite(gamma) and gamma >= 1.0,
            f"gamma = {gamma}",
            gamma=float(gamma),
            table=table,
        ),
        _record(
            "pinned_identity_case",
            pinned == 2.0,
            f"m=1 r=1 s=inf q=1 p=2 gives {pinned} (needs exactly 2)",
        ),
        _record(
            "composition_identity",
            comp_bad == 0,
            f"{comp_bad} mismatches over seeded tuples at rtol 1e-12",
        ),
        _record(
            "classical_sharp_exponents",
            classical_bad == 0,
            f"{classical_bad} mismatches against max(p', p) on the line",
        ),
    ]


def _transfer_checks(cfg: dict) -> list[dict]:
    grid = Grid(cfg["dim"], cfg["depth"])
    chain = [
        Cube(k, (0,) * cfg["dim"]) for k in range(cfg["depth"] + 1)
    ]
    family = verify_sparse(chain, eta=cfg["eta"])
    if not isinstance(family, SparseFamily):
        raise ConfigError(f"eta {cfg['eta']} refuses the nested test family; lower it")
    q, s = float(cfg["q"]), float(cfg["s"])
    # haar_l2 and sparse_l2 share m, rs and specs, so one suite serves both
    groups = [
        (("transfer_haar_l2", "transfer_sparse_l2"),
         (HaarTransform.random(grid, seed=cfg["seed"]), SparseOperator(family, rs=(1.0,))), [2.0]),
        (("transfer_sparse_pair",), (SparseOperator(family, rs=(1.0, 1.0)),), [4.0, 4.0 / 3.0]),
    ]
    checks, table = [], []
    for names, models, specs in groups:
        reps = vv_transfer_check(models, grid, specs, q, s, trials=cfg["trials"], seed=cfg["seed"])
        for name, rep in zip(names, reps):
            ok = rep.passed and rep.scalar["passed"] and rep.admissible
            checks.append(
                _record(
                    name,
                    ok,
                    f"slope {rep.slope:.4f} over atoms {list(rep.ns)}, "
                    f"scalar constant {rep.scalar['max_ratio']:.4f}",
                    None if ok else rep.as_dict(),
                    slope=float(rep.slope),
                    worst={str(n): float(v) for n, v in rep.worst.items()},
                    scalar=rep.scalar,
                )
            )
            for n in rep.ns:
                table.append({"model": name, "atoms": n, "worst_ratio": rep.worst[n]})
    checks[-1]["table"] = table
    return checks


_BATTERIES = {
    "equivalence": _equivalence_checks,
    "cz": _cz_checks,
    "stopping": _stopping_checks,
    "weights": _weights_checks,
    "exponents": _exponents_checks,
    "transfer": _transfer_checks,
}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(command: str, config: dict | None = None) -> dict:
    """Run one battery (or ``all``) and return the versioned report dict.

    Pure given (command, config): no files are touched, and the same input
    reproduces the same report bit for bit.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    cfg = {**DEFAULTS, **(config or {})}
    unknown = set(cfg) - set(DEFAULTS) - {"out"}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        _validate(command, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    names = [command] if command != "all" else [c for c in COMMANDS if c != "all"]
    checks = []
    for name in names:
        checks.extend(_BATTERIES[name](cfg))
    checks = _plain(checks)
    return {
        "schema": SCHEMA,
        "command": command,
        "config": {k: encode_inf(v) for k, v in cfg.items()},
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _write_artifacts(report: dict, out_dir: Path) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    command = report["command"]
    written = [out_dir / f"report_{command}.json"]
    written[0].write_text(json.dumps(report, indent=2) + "\n")
    for check in report["checks"]:
        table = check.get("table")
        if table:
            tpath = out_dir / f"{command}_{check['name']}.csv"
            with tpath.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(table[0].keys()))
                writer.writeheader()
                writer.writerows(table)
            written.append(tpath)
        if "failing_case" in check:
            replay = {"command": command, "config": report["config"], "case": check["failing_case"]}
            written.append(out_dir / f"failing_{check['name']}.json")
            written[-1].write_text(json.dumps(replay, indent=2) + "\n")
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsedom",
        description="Seeded check batteries for the sparse domination laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="|".join(COMMANDS))
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} battery")
        p.add_argument("--dim", type=int, default=None, help="grid dimension, 1 or 2")
        p.add_argument("--depth", type=int, default=None, help="grid depth (levels of refinement)")
        p.add_argument(
            "--shifts",
            action=argparse.BooleanOptionalAction,
            default=None,
            help="include all shifted lattices where supported",
        )
        p.add_argument("--seed", type=int, default=None, help="RNG seed for every battery")
        p.add_argument("--trials", type=int, default=None, help="random trials per check")
        p.add_argument("--eta", type=float, default=None, help="sparseness parameter in (0,1)")
        p.add_argument("--out", type=str, default=None, metavar="DIR", help="report directory")
        p.add_argument("--config", type=str, default=None, metavar="FILE", help="flat key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # unknown subcommand or bad flag
        return int(exc.code or 0)

    config: dict = {}
    if args.config is not None:
        try:
            config.update(parse_config_text(Path(args.config).read_text()))
        except OSError as exc:
            print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    for key in ("dim", "depth", "shifts", "seed", "trials", "eta"):
        value = getattr(args, key)
        if value is not None:
            config[key] = value

    # the output path never enters the report's config
    config_out = config.pop("out", None)
    out_dir = Path(args.out or config_out or os.environ.get(OUT_ENV) or "sparsedom_reports")

    try:
        report = run(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a library precondition the validator missed
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except StoppingFailure as exc:  # a finding about the inputs, not the config
        print(f"stopping failure: {exc}; state {json.dumps(exc.state)}", file=sys.stderr)
        return 1

    for check in report["checks"]:
        print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']}: {check['detail']}")
    written = _write_artifacts(report, out_dir)
    npass = sum(1 for c in report["checks"] if c["passed"])
    print(f"{report['command']}: {npass}/{len(report['checks'])} checks passed")
    print(f"report: {written[0]}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
