"""Command-line front end: analyze / simulate / verify / eigen.

Exit codes: 0 success, 2 configuration problem, 3 analysis negative (no
certified realization), 4 build or simulation failure, 5 verification
failure.  Output locations resolve as --out, then $AFFINESPDE_OUT/<name>,
then ./affinespde-out/<name>.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import csvio, forked, levy, operators, oracle, realization as rz
from .errors import (
    AffineSpdeError,
    ConfigError,
    NotInvariant,
    NotQuasiExponential,
    SigmaEscapesV,
    UnsupportedOperator,
)

_CLAUSE_ERRORS = (NotQuasiExponential, NotInvariant, SigmaEscapesV)


def _out_dir(arg_out: str | None, name: str) -> str:
    """The output path; each command creates it just before its first
    write, so a command that fails earlier leaves nothing behind."""
    if arg_out:
        return arg_out
    if os.environ.get("AFFINESPDE_OUT"):
        return os.path.join(os.environ["AFFINESPDE_OUT"], name)
    return os.path.join("affinespde-out", name)


def _load_runtime(ref: str) -> cfgmod.Runtime:
    path = cfgmod.resolve_config_path(ref)
    raw = cfgmod.load_config(path)
    return cfgmod.build_runtime(raw, base_dir=os.path.dirname(path) or ".")


def _finite_or_null(value):
    """`value` with every non-finite float replaced by None, which JSON
    writes as null: NaN and Infinity are not JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _realization_keys(real: rz.Realization) -> dict:
    """The keys that analysis.json and realization.json both report."""
    return {
        "dim_V": real.dim,
        "basis": [cfgmod.field_form(b) for b in real.V.basis],
        "B": real.B.tolist(),
        "sigma_coords": [v.coords.tolist() for v in real.vols],
        "psi_method": real.psi_method,
        "correction_norm": rz.semiinvariant_correction(real.op, real.V).operator_norm(),
        "clauses": real.clauses,
    }


# ---------------------------------------------------------------------------
# analyze


def run_analyze(rt: cfgmod.Runtime, out_dir: str) -> int:
    report: dict = {"scenario": rt.name,
                    "operator": type(rt.op).__name__,
                    "subspace_mode": rt.subspace_mode}
    closure = None
    if rt.sigma:
        try:
            closure = cfgmod.volatility_closure(rt)
            report["volatility_span"] = {
                "status": closure.status,
                "dims_per_iteration": list(closure.dims),
                "dim": closure.basis.dim,
            }
        except AffineSpdeError as exc:
            # the build below raises it again unless the basis is explicit
            report["volatility_span"] = {"status": "error", "reason": str(exc)}

    try:
        real = cfgmod.build_scenario_realization(
            rt, cfgmod.assemble_basis(rt, closure))
    except _CLAUSE_ERRORS as exc:
        reason = type(exc).__name__
        report.update(status="negative", reason=reason, detail=str(exc),
                      exit_code=3)
        _write_json(os.path.join(out_dir, "analysis.json"), report)
        print(f"{rt.name}: NEGATIVE ({reason}) {exc}")
        return 3

    report.update(
        _realization_keys(real),
        status="certified",
        state_dependent=[v.scale_fn is not None for v in real.vols],
        drift_mode=rt.drift_mode,
        exit_code=0,
    )
    _write_json(os.path.join(out_dir, "analysis.json"), report)
    print(f"{rt.name}: CERTIFIED dim V = {real.dim} "
          f"(invariant, drift fiber-constant, volatility inside V)")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _realization_report(rt: cfgmod.Runtime, real: rz.Realization,
                        v0: np.ndarray, curve_meta: dict, seed: int) -> dict:
    drift = real.drift
    space = real.V.space
    u_norm = (0.0 if drift.remainder is None
              else rz.space_norm(space, space.sample(drift.remainder)))
    return {
        **_realization_keys(real),
        "scenario": rt.name,
        "operator": type(rt.op).__name__,
        "space_size": space.size,
        "drift": {"mode": rt.drift_mode, "kind": drift.kind,
                  "v_coords": drift.v_coords.tolist(),
                  "complement_norm": u_norm},
        "v0": v0.tolist(),
        "seed": seed,
        "scheme": rt.scheme,
        "curve_meta": curve_meta,
    }


def _write_ensemble_stats(path: str, t_grid: np.ndarray, mean: np.ndarray,
                          var: np.ndarray) -> None:
    """One `t,mean_1..,var_1..` row per time."""
    d = mean.shape[1]
    head = ["t"] + [f"mean_{i + 1}" for i in range(d)] + \
        [f"var_{i + 1}" for i in range(d)]
    csvio.write_rows(path, ",".join(head), t_grid, np.hstack([mean, var]))


def run_simulate(rt: cfgmod.Runtime, out_dir: str, seed: int | None = None,
                 paths: int = 1) -> int:
    """Stream psi, Y and r = psi + Y . V into their files one time at a
    time; only Y and the carrier's table are held whole.  A forked child
    writes r.csv from its own psi stream while the parent writes the rest."""
    seed = rt.seed if seed is None else seed
    if seed + paths > levy.SEED_END:
        raise ConfigError(f"--paths {paths} from seed {seed} runs past the "
                          f"last seed 2^64 - 1")
    real = cfgmod.build_scenario_realization(rt)
    t_grid = rt.t_grid()
    carrier = rz.carrier_coords(real, rt.h0, t_grid)
    inc = levy.sample_increments(rt.driver, rt.dt, rt.n_t, seed)
    coords = np.array(list(rz.coordinate_rows(carrier, inc)))
    moments = None
    if paths > 1:  # its set-up checks raise before the first write
        moments = rz.ensemble_moments(carrier, rt.driver,
                                      range(seed, seed + paths))
    # before the fork: its correction norm's LAPACK calls would otherwise
    # share the cores with the r.csv writer
    report = _realization_report(rt, real, carrier.v0, carrier.meta, seed)
    axis = rt.space.axis()
    os.makedirs(out_dir, exist_ok=True)

    def write_r():
        # its own psi stream: inline, this runs after psi.csv is written
        basis = real.V.samples
        r_rows = (p + y @ basis for p, y in zip(carrier.rows(), coords, strict=True))
        oracle.write_grid_path(r_rows, os.path.join(out_dir, "r.csv"), t_grid, axis)

    def write_rest():
        oracle.write_grid_path(carrier.rows(), os.path.join(out_dir, "psi.csv"),
                               t_grid, axis)
        oracle.write_coordinate_csv(t_grid, coords, os.path.join(out_dir, "Y.csv"))
        levy.write_increments_csv(inc, os.path.join(out_dir, "increments.csv"))
        _write_json(os.path.join(out_dir, "realization.json"), report)

    forked.alongside(write_r, write_rest)

    if moments is not None:
        _write_ensemble_stats(os.path.join(out_dir, "ensemble_stats.csv"),
                              t_grid, *moments)

    print(f"{rt.name}: wrote psi.csv, Y.csv, r.csv, increments.csv, "
          f"realization.json to {out_dir}" +
          (", ensemble_stats.csv" if paths > 1 else ""))
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_level(rt: cfgmod.Runtime, lvl: int,
                  chain: list[levy.IncrementMatrix], v_basis, mutate,
                  ahead: bool = False):
    """Step the reduced model and the reference solver together at
    refinement level lvl, comparing them one time at a time (O(n_x)
    memory).  With ahead and two or more blocks of reference rows, a
    forked child computes block b + 1 of them while this process compares
    block b (`forked.ahead`), with the same bits.  Returns the level's
    record; level 0's also holds the largest foliation distance."""
    rt_l = rt.refined(2 ** lvl)
    real = cfgmod.build_scenario_realization(rt_l, v_basis)
    if mutate is not None:
        real = mutate(real)
    carrier = rz.carrier_coords(real, rt_l.h0, rt_l.t_grid())
    coords = rz.coordinate_rows(carrier, chain[lvl])
    reference = cfgmod.reference_rows(rt_l, real.V, chain[lvl])

    def compare(rows):
        # the reduced r_n = c_n . W + Y_n . V (+ the sampled carrier row),
        # compared in coordinates over the stacked span [W; V]; the leaf of
        # r_n is psi_n + V
        return oracle.compare_coordinates(
            rows, [(carrier.coords, carrier.samples),
                   (coords, real.V.samples)],
            rt_l.space.weights(),
            sampled=carrier.sampled and carrier.sampled(), leaf=lvl == 0)

    if ahead:
        fill, shapes = oracle.reference_blocks(reference, len(carrier.t_grid),
                                               rt_l.space.size)
        with forked.ahead(fill, shapes) as blocks:
            metrics = compare(itertools.chain.from_iterable(blocks))
    else:
        metrics = compare(reference)
    level = {
        "level": lvl,
        "n_t": rt_l.n_t,
        "space_size": rt_l.space.size,
        "sup_error": metrics.sup_error,
        "relative": metrics.relative,
        "scale": metrics.scale,
    }
    if lvl == 0:
        level["foliation_distance_max"] = float(metrics.foliation.max())
    return level


def run_verify(rt: cfgmod.Runtime, out_dir: str, seed: int | None = None,
               refine: int = 1, mutate=None) -> int:
    """Check the reduced model against the reference solver at refinement
    levels 0..refine, each by `_verify_level`.  For refine >= 1 one forked
    child runs the finest level, the most costly, and another the coarser
    ones in turn, while this process only waits (`forked.apart`).  Only
    the finest level computes its reference rows ahead in a child of its
    own, and only when its oracle steps (grid or ray_grid): it bounds the
    command, and the coarser levels already run alongside it; the modal
    oracle computes its amplitudes before any row.  The report bytes and
    exit codes are those of running every level here in order, which is
    what happens at refine 0 and where os.fork does not exist."""
    rt.check_refine(refine)
    seed = rt.seed if seed is None else seed
    # symbolic: one sweep for all levels, and a refused scenario draws no noise
    v_basis = cfgmod.assemble_basis(rt)
    n_fine = rt.n_t * 2 ** refine
    inc_fine = levy.sample_increments(rt.driver, rt.horizon / n_fine,
                                      n_fine, seed)
    chain = [inc_fine]
    for _ in range(refine):
        chain.append(levy.aggregate_increments(chain[-1], 2))
    chain.reverse()  # chain[l] matches refinement level l

    def level(lvl, ahead=False):
        return _verify_level(rt, lvl, chain, v_basis, mutate, ahead)

    if refine == 0:
        levels = [level(0)]
    else:
        coarse, finest = forked.apart(
            lambda: [level(lvl) for lvl in range(refine)],
            lambda: level(refine, ahead=rt.oracle != "modal"))
        levels = coarse + [finest]
    fol_max = levels[0].pop("foliation_distance_max")
    h0_norm = rz.space_norm(rt.space, rt.space.sample(rt.h0))
    bound, failures = rt.verify.verdict(levels, h0_norm)
    report = {
        "scenario": rt.name,
        "oracle": rt.oracle,
        "seed": seed,
        "bound": bound,
        "h0_norm": h0_norm,
        "levels": levels,
        "foliation_distance_max": fol_max,
        "refinement_checked": refine > 0,
        "passed": not failures,
        "failures": failures,
    }
    _write_json(os.path.join(out_dir, "verify.json"), report)
    if failures:
        print(f"{rt.name}: VERIFY FAILED - " + "; ".join(failures))
        return 5
    evidence = (f", {refine} refinement level(s) pass" if refine else
                "; bound only, --refine 0 gives no refinement evidence")
    print(f"{rt.name}: VERIFIED sup error {levels[0]['sup_error']:.3e} <= "
          f"{bound:.3e}{evidence}")
    return 0


# ---------------------------------------------------------------------------
# eigen


def _index_token(index) -> str:
    if isinstance(index, tuple):
        return "-".join(str(p) for p in index)
    return str(index)


def run_eigen(args, out_dir: str) -> int:
    """The catalog of the flags given: each is a size of the kind's catalog
    or a parameter of the operator kind (config.parse_operator), else exit 2."""
    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "operator", "out")}
    size = {"p_max": 2, "q_max": 3} if args.operator == "heat_disk" else {"count": 5}
    size.update((k, given.pop(k)) for k in size.keys() & given.keys())
    op = cfgmod.parse_operator({"kind": args.operator, **given})
    pairs = operators.eigenpairs(
        op, operators.disk_indices(**size) if "p_max" in size else size["count"])
    path = os.path.join(out_dir, "eigen.csv")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("index,eigenvalue,generator_eigenvalue,"
                 + ",".join(f"v{i + 1}" for i in range(9)) + "\n")
        for pair in pairs:
            samples = op.values(pair.index, op.sample_points())
            fh.write(_index_token(pair.index) + csvio.comma_fields(
                [pair.eigenvalue, pair.generator_eigenvalue, *samples]) + "\n")
    print(f"eigen catalog written to {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _at_least(minimum: int, below: int | None = None):
    """argparse type: an integer no smaller than minimum and, if given,
    smaller than below (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(
                f"must be below {below}, got {value}")
        return value

    return parse


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True,
                   help="scenario file or bundled scenario name")
    p.add_argument("--out", default=None)


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_at_least(0, levy.SEED_END), default=None)
    p.add_argument("--paths", type=_at_least(1), default=1)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_at_least(0, levy.SEED_END), default=None)
    p.add_argument("--refine", type=_at_least(0), default=1,
                   help="number of simultaneous halvings (default 1; 0 "
                        "checks the absolute bound only)")


def _eigen_arguments(p: argparse.ArgumentParser) -> None:
    # a flag not given is absent, so run_eigen sees the flags given
    p.argument_default = argparse.SUPPRESS
    p.add_argument("--operator", required=True,
                   choices=[name for name, kind in operators.KINDS.items()
                            if not issubclass(kind, operators.Translation)])
    p.add_argument("--count", type=_at_least(1))
    p.add_argument("--tau", type=float)
    p.add_argument("--lambda-c", dest="lambda_c", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--p-max", dest="p_max", type=_at_least(0, 21))
    p.add_argument("--q-max", dest="q_max", type=_at_least(1, 51))
    p.add_argument("--out", default=None)


# each subcommand: its name, its help line and what adds its arguments
_COMMANDS = (
    ("analyze", "run the realization decision procedure", _analyze_arguments),
    ("simulate", "solve the reduced model and write paths", _simulate_arguments),
    ("verify", "compare against the independent solver", _verify_arguments),
    ("eigen", "write an eigenvalue/eigenfunction catalog", _eigen_arguments),
)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of a command line whose first word is `command`.  Every
    subcommand is listed, but when `command` names one only its own
    arguments are added: that is all the line can parse."""
    parser = argparse.ArgumentParser(
        prog="affinespde",
        description="Finite-dimensional realizations of Levy-driven SPDEs: "
                    "analyze, simulate, verify, eigen catalogs.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = command in (name for name, _, _ in _COMMANDS)
    for name, help_line, add_arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        if not named or name == command:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.command == "eigen":
            out = _out_dir(args.out, f"eigen-{args.operator}")
            return run_eigen(args, out)
        rt = _load_runtime(args.config)
        out = _out_dir(args.out, rt.name)
        if args.command == "analyze":
            return run_analyze(rt, out)
        if args.command == "simulate":
            return run_simulate(rt, out, seed=args.seed, paths=args.paths)
        return run_verify(rt, out, seed=args.seed, refine=args.refine)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedOperator as exc:
        print(f"unsupported operator: {exc}", file=sys.stderr)
        return 2
    except _CLAUSE_ERRORS as exc:
        if args.command == "analyze":
            print(f"analysis negative: {exc}", file=sys.stderr)
            return 3
        print(f"build failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 4
    except AffineSpdeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
