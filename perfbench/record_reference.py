"""Record perfbench/reference.json from the current sources.

    python3 perfbench/record_reference.py

Runs the same CLI commands as the benchmark (through child.py) and keeps
what checks.py compares against: the seed-independent outputs, the
coordinate-model constants E, S, c, and each scenario's verify verdicts
and range of sup errors over VERIFY_SEEDS.  Re-record only when a change is
meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import numpy as np
import scipy.linalg

import run

REF = os.path.join(run.HERE, "reference.json")
SIM_SEED = 1
VERIFY_SEEDS = (0, 1, 2, 3, 4, 5)
SUB = 11  # rows and columns kept from psi.csv / r.csv


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _call(argv: list[str], out: str) -> int:
    rec = run.run_command(argv, out, trace=0)
    if "error" in rec:
        sys.exit(f"{' '.join(argv)}: {rec['error']}\n{rec.get('stderr', '')}")
    return rec["rc"]


def record_analyze(work: str) -> dict:
    out = {}
    for scen in run.CERTIFIED + run.NEGATIVE:
        d = os.path.join(work, "analyze", scen)
        _call(["analyze", "--config", scen], d)
        a = _read(os.path.join(d, "analysis.json"))
        keep = {k: a[k] for k in ("status", "exit_code", "dim_V", "reason",
                                  "psi_method", "subspace_mode", "B",
                                  "sigma_coords", "correction_norm")
                if k in a}
        if "volatility_span" in a:
            keep["volatility_span"] = {
                k: a["volatility_span"].get(k)
                for k in ("status", "dim", "dims_per_iteration")}
        if "clauses" in a:
            keep["clauses"] = {k: v.get("ok") for k, v in a["clauses"].items()}
        out[scen] = keep
    return out


def record_simulate(work: str, scen: str) -> dict:
    from affinespde import config as cfgmod, levy, oracle

    d = os.path.join(work, "simulate", scen)
    if _call(["simulate", "--config", scen, "--seed", str(SIM_SEED)], d):
        sys.exit(f"simulate {scen} failed")
    real = _read(os.path.join(d, "realization.json"))
    psi = oracle.read_grid_path(os.path.join(d, "psi.csv"))
    t, y = oracle.read_coordinate_csv(os.path.join(d, "Y.csv"))
    inc = levy.read_increments_csv(os.path.join(d, "increments.csv"))

    path = cfgmod.resolve_config_path(scen)
    rt = cfgmod.build_runtime(cfgmod.load_config(path),
                              base_dir=os.path.dirname(path))
    if rt.scheme != "exp_exact" or any(
            c.jump_intensity for c in rt.driver.components):
        sys.exit(f"{scen}: checks assume exp_exact and Wiener noise")
    V = cfgmod.build_scenario_realization(rt).V.samples

    n_rows, n_cols = psi.values.shape
    rows = sorted(set(np.linspace(0, n_rows - 1, SUB).astype(int).tolist()))
    cols = sorted(set(np.linspace(0, n_cols - 1, SUB).astype(int).tolist()))
    B, S = np.array(real["B"]), np.array(real["sigma_coords"])
    E = scipy.linalg.expm(B * rt.dt)
    resid = y[1:] - y[:-1] @ E.T - inc.values @ S
    c = resid.mean(axis=0)
    if np.abs(resid - c).max() > 1e-12 * max(1.0, np.abs(y).max()):
        sys.exit(f"{scen}: Y.csv is not an exponential recursion")
    keys = ("scenario", "operator", "space_size", "dim_V", "B",
            "sigma_coords", "v0", "psi_method", "scheme")
    return {
        "realization": {k: real[k] for k in keys},
        "shape": [n_rows, n_cols], "rows": rows, "cols": cols,
        "t": t[rows].tolist(), "axis": psi.x_grid[cols].tolist(),
        "psi": psi.values[np.ix_(rows, cols)].tolist(),
        "V": V[:, cols].tolist(), "v0": real["v0"],
        "E": E.tolist(), "S": S.tolist(), "c": c.tolist(),
        "noise_var": [c_.brownian_vol ** 2 * rt.dt
                      for c_ in rt.driver.components],
    }


def record_verify(work: str) -> dict:
    from affinespde import config as cfgmod

    out = {}
    for scen in run.CERTIFIED:
        path = cfgmod.resolve_config_path(scen)
        vs = cfgmod.build_runtime(cfgmod.load_config(path),
                                  base_dir=os.path.dirname(path)).verify
        sups, passed, first = [], [], None
        for seed in VERIFY_SEEDS:
            d = os.path.join(work, "verify", f"{scen}-{seed}")
            rc = _call(["verify", "--config", scen, "--refine",
                        str(run.VERIFY_REFINE), "--seed", str(seed)], d)
            if rc not in (0, 5):
                sys.exit(f"verify {scen} seed {seed}: exit {rc}")
            v = _read(os.path.join(d, "verify.json"))
            print(f"verify {scen} seed {seed}: exit {rc} "
                  + " ".join(f"{lv['sup_error']:.3g}" for lv in v["levels"]))
            sups.append([lv["sup_error"] for lv in v["levels"]])
            passed.append(rc == 0)
            first = first or v
        sups = np.array(sups)
        out[scen] = {
            "oracle": first["oracle"], "bound": first["bound"],
            "h0_norm": first["h0_norm"],
            "grids": [[lv["n_t"], lv["space_size"]] for lv in first["levels"]],
            "settings": {"ratio_bound": vs.ratio_bound,
                         "floor_rel": vs.floor_rel,
                         "bound_rel_h0": vs.bound_rel_h0},
            "sup_error_range": np.column_stack(
                [sups.min(axis=0), sups.max(axis=0)]).tolist(),
            "seeds": list(VERIFY_SEEDS), "passed": passed,
        }
    return out


def main() -> int:
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.WORK, "record")
    shutil.rmtree(work, ignore_errors=True)
    try:
        ref = {"analyze": record_analyze(work),
               "simulate": {s: record_simulate(work, s)
                            for s in ("hjmm-linear", "heat-disk")},
               "verify": record_verify(work)}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(REF, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REF}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
