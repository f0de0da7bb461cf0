"""Command-line front end: one subcommand per theorem-scale experiment,
each emitting a machine-readable report and a pass/fail verdict against
the bound it reproduces.

Reports are JSON lines {command, params, results, pass, elapsed_ms}
with floats printed to 17 significant digits, so a rerun with the same
config and seed is bit-identical except for the timing field.  Sweep
variants emit one line (or CSV row) per parameter value; non-finite
floats are written as the strings "inf", "-inf" and "nan".  With
--paper-check the exit code becomes 2 when any asserted bound fails;
usage errors exit 1, a solver that cannot certify its answer
(optim.ConvergenceError) exits 3 with "numerical failure: ..." on
stderr, everything else 0.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import constructions, entropy, entropy_opt, hulls, simplexgeo, treespace
from .core import NormSpec, Vector
from .labels import leaf, pair
from .optim import ConvergenceError

__all__ = ["ExperimentConfig", "run", "main"]

DEFAULT_TOL = 1e-9


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """A parsed experiment: command name, numeric parameters, seed and
    output format."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    fmt: str = "json"
    paper_check: bool = False

    def __post_init__(self):
        if self.fmt not in ("json", "csv"):
            raise UsageError(f"output format must be json or csv, got {self.fmt!r}")


# ---------------------------------------------------------------------------
# Report serialization: floats at 17 significant digits, bit-stable.
# ---------------------------------------------------------------------------


def _canon(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_canon(x) for x in v]
    return v


def _json_token(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            return f'"{v}"'  # JSON has no inf/nan tokens
        return format(v, ".17g")
    if isinstance(v, str):
        out = v.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(v, dict):
        inner = ",".join(f"{_json_token(str(k))}:{_json_token(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, list):
        return "[" + ",".join(_json_token(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def _flatten(prefix: str, v, out: dict):
    if isinstance(v, dict):
        for k, x in v.items():
            _flatten(f"{prefix}{k}_", x, out)
    else:
        out[prefix.rstrip("_")] = v


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return '"' + ";".join(_csv_cell(x) for x in v) + '"'
    return str(v)


# ---------------------------------------------------------------------------
# Command handlers: each returns (results, passed) for one parameter set,
# or a list of (params, results, passed) rows for sweeps.
# ---------------------------------------------------------------------------


def _positive(cfg, name):
    """The count cfg.params[name], rejected unless it is at least 1."""
    value = cfg.params[name]
    if value < 1:
        raise UsageError(f"{cfg.command} needs --{name} >= 1, got {value}")
    return value


def _auto_grid(n: int, cap: int = 3000) -> int:
    """The smallest g >= 1 with comb(g + n, n - 1) > cap.  Needs n >= 2:
    for n = 1 that count is 1 for every g, so no g would do."""
    if n < 2:
        raise ValueError(f"an automatic grid needs n >= 2, got {n}")
    g = 1
    while math.comb(g + n, n - 1) <= cap:
        g += 1
    return g


def _cmd_kappa(cfg):
    n = cfg.params["n"]
    rep = entropy.kappa(n)
    results = {"lower": rep.lower, "upper": rep.upper, "formula": rep.formula}
    passed = rep.lower <= rep.formula <= rep.upper
    return results, passed


def _cmd_entropy_defect(cfg):
    n = _positive(cfg, "n")  # two simplex vertices
    samples = _positive(cfg, "samples")
    rng = np.random.default_rng(cfg.seed)
    X = rng.dirichlet(np.ones(n + 1), size=samples)
    Y = rng.dirichlet(np.ones(n + 1), size=samples)
    ts = rng.uniform(0.0, 1.0, size=samples)
    mix = ts[:, None] * X + (1.0 - ts[:, None]) * Y
    defects = np.abs(
        entropy.entropy_E_array(mix)
        - ts * entropy.entropy_E_array(X)
        - (1.0 - ts) * entropy.entropy_E_array(Y)
    )
    e1, e2 = np.eye(n + 1)[:2]
    half = entropy.affine_defect(e1, e2, 0.5)
    results = {
        "max_defect": float(defects.max()),
        "defect_at_disjoint_half": half,
        "samples": samples,
    }
    passed = defects.max() <= 1.0 + 1e-12 and abs(half - 1.0) <= 1e-12
    return results, passed


def _cmd_euclid_set(cfg):
    n = cfg.params["n"]
    crit = constructions.critical_scale(n)
    M = cfg.params.get("M", crit)
    grid = cfg.params.get("grid", _auto_grid(n))
    spec = constructions.ConstructionSpec(space=NormSpec.lp(2), n=n, M=M, grid=grid)
    at_crit = abs(M - crit) <= 1e-9 * crit and n >= 4
    numeric = constructions.euclid_witness_distance(n, M, mode="numeric")
    sample = constructions.build_entropy_set(spec)
    diam = hulls.diameter(sample, NormSpec.lp(2))
    diam_bound = 2.0 / math.sqrt(math.log(2.0)) * math.sqrt(n * math.log2(n)) + math.log2(n)
    results = {
        "M": M,
        "numeric_distance": numeric,
        "grid": grid,
        "sample_size": len(sample),
        "diameter": diam,
        "diameter_bound": diam_bound,
    }
    passed = diam <= diam_bound + 1e-9
    if at_crit:
        analytic = constructions.euclid_witness_distance(n, M, mode="analytic")
        results["witness_distance"] = analytic
        passed = (
            passed
            and abs(analytic - math.log2(n)) <= 1e-6
            and abs(numeric - analytic) <= 1e-3
        )
    else:
        results["witness_distance"] = numeric
    return results, passed


def _bound_results(rep):
    return {
        "M": rep.M_used,
        "hausdorff_lb": rep.hausdorff_lb,
        "diam_ub": rep.diam_ub,
        "valid": rep.validity_condition,
    }


def _cmd_l1_bound(cfg):
    rep = constructions.l1_bound(cfg.params["n"], cfg.params["eps"])
    passed = rep.hausdorff_lb <= rep.diam_ub and rep.validity_condition
    return _bound_results(rep), passed


def _cmd_general_bound(cfg):
    n, eps = cfg.params["n"], cfg.params["eps"]
    dist = cfg.params.get("dist")
    if dist is None:
        p = cfg.params.get("p")
        if p is None:
            raise UsageError("general-bound needs --dist or --p")
        dist = constructions.lp_distance_to_l1(n, p)
    rep = constructions.general_bound(n, eps, dist)
    results = _bound_results(rep)
    results["dist_to_l1"] = dist
    passed = rep.hausdorff_lb <= rep.diam_ub and rep.validity_condition
    return results, passed


def _cmd_lp_set(cfg):
    n = cfg.params["n"]
    p = cfg.params["p"]
    if n < 2:
        raise UsageError(f"lp-set needs --n >= 2, got {n}")
    if p not in (1.0, 2.0, math.inf):
        # dist_to_hull, which the witness check needs, has no other norms.
        raise UsageError(f"lp-set supports --p 1, 2 or inf, got {p:g}")
    M = cfg.params.get("M", 4.0 * math.log2(n))
    grid = cfg.params.get("grid", _auto_grid(n, cap=400))
    spec = constructions.ConstructionSpec(space=NormSpec.lp(p), n=n, M=M, grid=grid)
    sample = constructions.build_entropy_set(spec)
    norm = NormSpec.lp(p)
    rep = hulls.convexity_defect(sample, norm, t_grid=cfg.params["t_grid"])
    delta = 1.0 / grid
    mesh = M * delta * n ** (1.0 / p) + n * (entropy.phi(delta) + delta / math.log(2.0))
    w = constructions.witness(spec)
    lb = hulls.hausdorff_lb(sample, [w], norm)
    results = {
        "M": M,
        "grid": grid,
        "sample_size": len(sample),
        "convexity_defect": rep.sup_defect,
        "defect_allowance": 1.0 + mesh,
        "witness_lb": lb,
    }
    passed = rep.sup_defect <= 1.0 + mesh
    return results, passed


def _cmd_simplex_face(cfg):
    n = cfg.params["n"]
    trials = _positive(cfg, "trials")
    rng = np.random.default_rng(cfg.seed)
    worst_ratio = 0.0
    for _ in range(trials):
        V = _random_interior_simplex(rng, n)
        for k, res in enumerate(simplexgeo.face_chain(V)):
            worst_ratio = max(worst_ratio, res.distance / simplexgeo.alpha(n, k))
    E = np.eye(n + 1)
    Vreg = E - E.mean(axis=0)
    Vreg /= np.linalg.norm(Vreg, axis=1, keepdims=True)
    reg_err = max(
        abs(res.distance - simplexgeo.alpha(n, k))
        for k, res in enumerate(simplexgeo.face_chain(Vreg))
    )
    results = {
        "trials": trials,
        "worst_distance_ratio": worst_ratio,
        "regular_equality_error": reg_err,
    }
    passed = worst_ratio <= 1.0 + 1e-9 and reg_err <= 1e-9
    return results, passed


def _random_interior_simplex(rng, n):
    """Unit-sphere vertices whose barycentric coordinates of the origin
    all exceed 1e-3 and combine them to it.

    n + 1 random unit vectors have a linear dependence c, the last right
    singular vector of V^T; flipping each v_i to sign(c_i c_0) v_i puts
    the origin inside, at barycentric coordinates |c| / ||c||_1.  Up to
    one global sign no other flip does (Wendel, Math. Scand. 11, 1962),
    so V has the law of n + 1 random unit vectors conditioned on holding
    the origin, in one draw where rejection took about 2^n."""
    while True:
        V = rng.standard_normal((n + 1, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        c = np.linalg.svd(V.T)[2][-1]
        V *= np.sign(c * c[0])[:, None]
        lam = np.abs(c) / np.abs(c).sum()
        if lam.min() > 1e-3 and np.linalg.norm(V.T @ lam) <= 1e-9:
            return V


def _cmd_best_subset(cfg):
    n = _positive(cfg, "n")  # a simplex with two vertices
    trials = _positive(cfg, "trials")
    rng = np.random.default_rng(cfg.seed)
    worst_ratio = 0.0
    for _ in range(trials):
        V = _random_interior_simplex(rng, n)
        P = V * rng.uniform(0.4, 1.0, size=(n + 1, 1))
        for j in range(1, n + 1):
            res = simplexgeo.best_subset(P, j)
            bound = math.sqrt((n + 1 - j) / (n * j))
            worst_ratio = max(worst_ratio, res.distance / bound)
    results = {"trials": trials, "worst_bound_ratio": worst_ratio}
    return results, worst_ratio <= 1.0 + 1e-9


def _cmd_opt_entropy(cfg):
    n = _positive(cfg, "n")
    tol = cfg.params["tol"]
    if not tol > 0.0:
        raise UsageError(f"opt-entropy needs --tol > 0, got {tol:g}")
    crit = constructions.critical_scale(n) if n >= 2 else None
    M = cfg.params.get("M", crit)
    if M is None:
        raise UsageError("opt-entropy needs --M > 0 when --n is 1: the critical scale needs n >= 2")
    y, value = entropy_opt.minimize_I(n, M, tol=tol)
    direct = M * M / n + math.log2(n) ** 2
    levels = [v for _, v in y.pieces if v > 0.0]
    results = {
        "M": M,
        "pieces": [[l, v] for l, v in y.pieces],
        "value": value,
    }
    if n >= 4 and abs(M - crit) <= 1e-9 * crit:
        results["uniform_value"] = direct
        passed = (
            abs(value - direct) <= 1e-9
            and len(levels) == 1
            and abs(levels[0] - 1.0 / n) <= 1e-6
        )
    else:
        # At most the indicator's and uniform step's I; no piece of value 1 where 5n < M^2 <= crit^2.
        unit_piece = n >= 2 and 5 * n < M * M <= crit * crit and max(levels) >= 1.0
        passed = value <= min(M * M, direct) + tol and not unit_piece
    return results, passed


def _cmd_lowbound3(cfg):
    n = cfg.params["n"]
    best_j, factor = constructions.lowbound3(n)
    results = {
        "best_j": best_j,
        "factor": factor,
        "diam_lb": factor * math.sqrt(n),
    }
    passed = factor >= 0.7525 if n >= 20 else True
    return results, passed


def _cmd_typep_bound(cfg):
    p, Tp, d = cfg.params["p"], cfg.params["Tp"], cfg.params["d"]
    value = constructions.typep_bound(p, Tp, d)
    results = {"bound": value}
    diam = cfg.params.get("diam")
    passed = True
    if diam is not None:
        results["diam"] = diam
        passed = diam >= value
    return results, passed


def _rand_label(rng, max_lv, p_leaf, leaf_hi):
    """A random tree label of level at most max_lv: with probability
    p_leaf (always once max_lv <= 1) a leaf numbered below leaf_hi, else
    a pair of random labels whose levels add up to max_lv."""
    if max_lv <= 1 or rng.random() < p_leaf:
        return leaf(int(rng.integers(1, leaf_hi)))
    lv = int(rng.integers(1, max_lv))
    return pair(_rand_label(rng, lv, p_leaf, leaf_hi), _rand_label(rng, max_lv - lv, p_leaf, leaf_hi))


def _random_tree_vector(rng):
    # Up to six labels of level at most 8.  Labels hash by identity, so a
    # set's order varies between processes; keep the distinct labels in
    # draw order before drawing their values.
    labs = dict.fromkeys(_rand_label(rng, 8, 0.4, 64) for _ in range(int(rng.integers(1, 7))))
    x = Vector({lab: float(rng.uniform(-2.0, 2.0)) for lab in labs})
    return x if x else Vector.unit(leaf(1))


def _cmd_tree_norm(cfg):
    M = cfg.params["M"]
    samples = _positive(cfg, "samples")
    rng = np.random.default_rng(cfg.seed)
    worst_gap = 0.0
    sandwich_ok = True
    for _ in range(samples):
        x = _random_tree_vector(rng)
        primal, dual = treespace.tree_norm(x, M)
        worst_gap = max(worst_gap, abs(primal - dual))
        l1n = sum(abs(v) for _, v in x.items())
        sandwich_ok = sandwich_ok and (
            0.5 * l1n - 1e-7 <= primal <= M * l1n + 1e-7
        )
    results = {"samples": samples, "max_gap": worst_gap, "sandwich": sandwich_ok}
    return results, worst_gap <= treespace.DUALITY_TOL and sandwich_ok


def _cmd_tree_haus(cfg):
    M, N = cfg.params["M"], _positive(cfg, "N")  # the number of leaves averaged
    formula = 2.0 * M - 2.0 ** (2 * M + 1) * M / N
    measured = treespace.haus_experiment(M, N)
    certified = measured >= formula - 1e-12 and measured <= 2.0 * M + 1e-12
    results = {"bound": formula, "measured": measured, "certified": certified}
    return results, certified


def _cmd_tree_jensen(cfg):
    M = cfg.params["M"]
    pairs_n = _positive(cfg, "pairs")
    # Below level 1 the generator would still draw leaves, of level 1.
    max_level = _positive(cfg, "level")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(pairs_n):
        b = _rand_label(rng, max_level, 0.45, 40)
        c = _rand_label(rng, max_level, 0.45, 40)
        worst = max(worst, treespace.jensen_defect(b, c, float(M)))
    results = {"pairs": pairs_n, "max_defect": worst}
    return results, worst <= 1.0 + 1e-9


_HANDLERS = {
    "kappa": _cmd_kappa,
    "entropy-defect": _cmd_entropy_defect,
    "euclid-set": _cmd_euclid_set,
    "l1-bound": _cmd_l1_bound,
    "general-bound": _cmd_general_bound,
    "lp-set": _cmd_lp_set,
    "simplex-face": _cmd_simplex_face,
    "best-subset": _cmd_best_subset,
    "opt-entropy": _cmd_opt_entropy,
    "lowbound3": _cmd_lowbound3,
    "typep-bound": _cmd_typep_bound,
    "tree-norm": _cmd_tree_norm,
    "tree-haus": _cmd_tree_haus,
    "tree-jensen": _cmd_tree_jensen,
}

_SWEEPABLE = {"kappa", "l1-bound", "lowbound3"}


def run(config: ExperimentConfig) -> tuple[list[dict], bool]:
    """Execute one experiment (or a sweep) and return its report lines
    plus the overall pass verdict."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    sweep = config.params.pop("sweep", None)
    param_sets = [config.params]
    if sweep is not None:
        if config.command not in _SWEEPABLE:
            raise UsageError(f"{config.command} does not support --sweep")
        param_sets = [dict(config.params, n=n) for n in sweep]
    reports = []
    all_pass = True
    for params in param_sets:
        cfg = replace(config, params=params)
        t0 = time.perf_counter()
        results, passed = handler(cfg)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        shown = dict(params)
        shown["seed"] = config.seed
        reports.append(
            {
                "command": config.command,
                "params": _canon(shown),
                "results": _canon(results),
                "pass": bool(passed),
                "elapsed_ms": float(elapsed_ms),
            }
        )
        all_pass = all_pass and passed
    return reports, all_pass


def _emit(reports: list[dict], fmt: str):
    if fmt == "json":
        for rep in reports:
            sys.stdout.write(_json_token(rep) + "\n")
        return
    rows = []
    for rep in reports:
        row = {"command": rep["command"]}
        _flatten("", rep["params"], row)
        _flatten("", rep["results"], row)
        row["pass"] = rep["pass"]
        row["elapsed_ms"] = rep["elapsed_ms"]
        rows.append(row)
    header = list(rows[0].keys())
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_csv_cell(row.get(col, "")) for col in header) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_sweep(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"sweep must be START:STOP[:STEP], got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad sweep {text!r}: {exc}") from None
    start, stop = nums[0], nums[1]
    step = nums[2] if len(nums) == 3 else 1
    if step < 1 or stop < start:
        raise UsageError(f"bad sweep range {text!r}")
    return list(range(start, stop + 1, step))


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--paper-check",
        action="store_true",
        help="exit 2 if the command's asserted bound fails",
    )
    parser = _Parser(prog="approxconvex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **spec):
        p = sub.add_parser(name, parents=[common])
        for flag, (typ, default, required) in spec.items():
            p.add_argument(f"--{flag}", type=typ, default=default, required=required)
        return p

    p = add("kappa", n=(int, None, False))
    p.add_argument("--sweep", type=str, default=None)
    add("entropy-defect", n=(int, 4, False), samples=(int, 10_000, False))
    add("euclid-set", n=(int, None, True), M=(float, None, False), grid=(int, None, False))
    p = add("l1-bound", n=(int, None, False), eps=(float, 1.0, False))
    p.add_argument("--sweep", type=str, default=None)
    add(
        "general-bound",
        n=(int, None, True),
        eps=(float, 1.0, False),
        dist=(float, None, False),
        p=(float, None, False),
    )
    add(
        "lp-set",
        n=(int, None, True),
        p=(float, 1.0, False),
        M=(float, None, False),
        grid=(int, None, False),
        t_grid=(int, 5, False),
    )
    add("simplex-face", n=(int, None, True), trials=(int, 50, False))
    add("best-subset", n=(int, None, True), trials=(int, 20, False))
    add("opt-entropy", n=(int, None, True), M=(float, None, False), tol=(float, DEFAULT_TOL, False))
    p = add("lowbound3", n=(int, None, False))
    p.add_argument("--sweep", type=str, default=None)
    add(
        "typep-bound",
        p=(float, None, True),
        Tp=(float, 1.0, False),
        d=(float, None, True),
        diam=(float, None, False),
    )
    add("tree-norm", M=(float, 2.0, False), samples=(int, 25, False))
    add("tree-haus", M=(int, 2, False), N=(int, 128, False))
    add("tree-jensen", M=(float, 2.0, False), pairs=(int, 20, False), level=(int, 6, False))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        params = {
            k: v
            for k, v in vars(ns).items()
            if k not in ("seed", "format", "paper_check", "command")
            and v is not None
        }
        if "sweep" in params:
            params["sweep"] = _parse_sweep(params["sweep"])
        elif ns.command in _SWEEPABLE and params.get("n") is None:
            raise UsageError(f"{ns.command} needs --n or --sweep")
        config = ExperimentConfig(
            command=ns.command,
            params=params,
            seed=ns.seed,
            fmt=ns.format,
            paper_check=ns.paper_check,
        )
        reports, all_pass = run(config)
    except (UsageError, ValueError, ArithmeticError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _emit(reports, config.fmt)
    if config.paper_check and not all_pass:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
