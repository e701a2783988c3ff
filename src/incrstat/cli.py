"""Experiment orchestration: config in, deterministic CSV/JSON artifacts out.

Subcommands: green, covariance, corrector-scaling, energy, report.
Artifacts embed the canonical config; identical configs produce
byte-identical outputs regardless of worker count, because every
realization draws from a seed stream addressed by its own index and all
reductions run in index order.

Exit codes: 0 success, 2 config/usage, 3 budget, 4 generator,
5 diagnostic, 6 I/O, 7 worker process died, 130 interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import config as cfg
from .corrector import (
    LOGLIN_R2_MIN,
    LOGLOG_R2_MIN,
    LOGLOG_SLOPE_MAX,
    RATIO_BOUNDED,
    scaling_study,
)
from .errors import (
    INTERRUPT_EXIT_CODE,
    IO_EXIT_CODE,
    USAGE_EXIT_CODE,
    WORKER_EXIT_CODE,
    ConfigError,
    DiagnosticError,
    GeneratorError,
)
from .green import dyadic_gradient_norms, green_torus
from .lattice import TorusField, TorusGeometry, laplacian
from .pointsets import IntervalLaw, PairPotential, renewal_pointset_1d, thermodynamic_density
from .randfields import GeneratorSpec, IncrementLaw, empirical_covariance
from .seeding import DOMAIN_POINTSET, derive_seed

__all__ = ["main"]

POOL_CHUNK = 4
_NUM = (int, float)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # plain float repr even for numpy scalars
    return str(v)


def _write_csv(path: str, config_text: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in config_text.rstrip("\n").split("\n"):
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _generator_spec(values: dict) -> GeneratorSpec:
    kind = values["generator"]
    law = None
    if kind in ("iid", "gradient"):
        try:
            law = IncrementLaw(values["law"], values["law_param"])
        except ValueError as exc:
            raise ConfigError(f"law_param: {exc}") from None
    if kind == "decay_alpha" and values["alpha"] is None:
        raise ConfigError("alpha: required when generator = decay_alpha")
    if values["axis"] >= values["d"]:
        raise ConfigError(f"axis: must be < d, got {values['axis']} for d={values['d']}")
    return GeneratorSpec(kind=kind, axis=values["axis"], law=law, alpha=values["alpha"])


def _run_green(values: dict, out_dir: str, map_fn) -> list[str]:
    geom = TorusGeometry(values["d"], values["L"])
    table = green_torus(values["mu"], geom)
    G = TorusField(geom, table.values)
    resid = values["mu"] * table.values - laplacian(G).values[0]
    resid[(0,) * geom.d] -= 1.0
    residual_max = float(np.max(np.abs(resid)))
    config_text = cfg.canonical_text("green", values)
    rows = []
    slopes = {}
    for p in values["p"]:
        dn = dyadic_gradient_norms(table, p)
        rows.extend((p, i, s) for i, s in dn.annuli)
        slopes[_fmt(float(p))] = {
            "slope": dn.slope,
            "r2": dn.r2,
            "expected_slope": dn.expected_slope,
        }
    csv_path = os.path.join(out_dir, "green_dyadic.csv")
    json_path = os.path.join(out_dir, "green_summary.json")
    _write_csv(csv_path, config_text, ("p", "annulus", "sum"), rows)
    _write_json(
        json_path,
        {
            "artifact": "green_summary",
            "d": geom.d,
            "L": geom.L,
            "mu": values["mu"],
            "site_sum": table.site_sum,
            "wrap_estimate": table.wrap_estimate,
            "residual_max": residual_max,
            "sup_grad_abs": float(np.max(np.abs(table.grad))),
            "slopes": slopes,
            "config_text": config_text,
        },
    )
    return [csv_path, json_path]


def _covariance_sample(task):
    spec, geom, seed, idx = task
    return (idx, spec.realize(geom, seed, idx))


def _run_covariance(values: dict, out_dir: str, map_fn) -> list[str]:
    spec = _generator_spec(values)
    geom = TorusGeometry(values["d"], values["L"])
    n = values["n_samples"]
    tasks = [(spec, geom, values["seed"], i) for i in range(n)]
    samples = [None] * n
    for idx, sample in map_fn(_covariance_sample, tasks):
        samples[idx] = sample
    d = geom.d
    lags = []
    for m in sorted(set(values["lag_list"])):
        if m == 0:
            lags.append((0,) * d)
            continue
        for ax in range(d):
            vec = [0] * d
            vec[ax] = m
            lags.append(tuple(vec))
    est = empirical_covariance(samples, lags)
    config_text = cfg.canonical_text("covariance", values)
    rows = []
    for j, lag in enumerate(est.lags):
        lag_label = ";".join(str(int(c)) for c in lag)
        for l in range(d):
            for lp in range(d):
                rows.append(
                    (lag_label, l, lp, est.axis, float(est.cov[j, l, lp]),
                     float(est.stderr[j, l, lp]))
                )
    csv_path = os.path.join(out_dir, "covariance.csv")
    json_path = os.path.join(out_dir, "covariance_summary.json")
    _write_csv(csv_path, config_text, ("lag", "l", "lp", "n", "cov", "stderr"), rows)
    warnings = sorted({w for s in samples for w in s.warnings})
    _write_json(
        json_path,
        {
            "artifact": "covariance_summary",
            "generator": spec.describe(),
            "d": d,
            "L": geom.L,
            "n_samples": n,
            "alpha_hat": "indeterminate" if est.alpha_hat is None else est.alpha_hat,
            "alpha_halfwidth": est.alpha_halfwidth,
            "n_fit_entries": est.n_fit_entries,
            "clamped_mass_fraction": samples[0].clamped_mass_fraction,
            "warnings": warnings,
            "config_text": config_text,
        },
    )
    return [csv_path, json_path]


def _run_scaling(values: dict, out_dir: str, map_fn) -> list[str]:
    spec = _generator_spec(values)
    report = scaling_study(
        spec,
        values["d"],
        mu_grid=values["mu_grid"],
        n_per_mu=values["n"],
        master_seed=values["seed"],
        l_rule_coefficient=values["l_rule_coefficient"],
        l_max=values["l_max"],
        memory_budget_mb=values["memory_budget_mb"],
        map_fn=map_fn,
    )
    config_text = cfg.canonical_text("corrector-scaling", values)
    csv_path = os.path.join(out_dir, "scaling.csv")
    json_path = os.path.join(out_dir, "scaling_report.json")
    _write_csv(csv_path, config_text, report.CSV_HEADER, report.csv_rows())
    payload = {"artifact": "scaling_report", "config_text": config_text}
    payload.update(report.to_dict())
    _write_json(json_path, payload)
    return [csv_path, json_path]


def _run_energy(values: dict, out_dir: str, map_fn) -> list[str]:
    try:
        law = IntervalLaw(values["law"], values["law_a"], values["law_b"])
    except ValueError as exc:
        raise ConfigError(f"law_a/law_b: {exc}") from None
    try:
        V = PairPotential(values["potential"], values["cutoff"], values["exponent"])
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    sizes = values["sizes"]
    if len(sizes) < 3:
        raise ConfigError(f"sizes: need at least 3 box sizes, got {len(sizes)}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("sizes: must be strictly increasing")
    study = thermodynamic_density(
        law,
        V,
        sizes,
        n_seeds=values["n_seeds"],
        master_seed=values["seed"],
        shift=values["shift"],
        map_fn=map_fn,
    )
    config_text = cfg.canonical_text("energy", values)
    csv_path = os.path.join(out_dir, "energy.csv")
    json_path = os.path.join(out_dir, "energy_summary.json")
    _write_csv(csv_path, config_text, ("N", "seed", "energy", "density"), study.records())
    _write_json(
        json_path,
        {
            "artifact": "energy_summary",
            "potential": {"kind": V.kind, "cutoff": V.cutoff, "exponent": V.exponent},
            "law": {"kind": law.kind, "a": law.a, "b": law.b},
            "sizes": list(study.sizes),
            "n_seeds": study.n_seeds,
            "rows": [
                {"N": N, "density_mean": m, "spread": s} for N, m, s in study.rows()
            ],
            "spread_decreases": study.spread_decreases,
            "shift": study.shift,
            "shift_agrees": study.shift_agrees,
            "flags": list(study.flags),
            "config_text": config_text,
        },
    )
    paths = [csv_path, json_path]
    if values["export_points"]:
        # position list for the first study seed at each size
        sub = derive_seed(values["seed"], DOMAIN_POINTSET, 0)
        for N in sizes:
            win = renewal_pointset_1d(law, (-V.cutoff, N + V.cutoff), sub)
            ppath = os.path.join(out_dir, f"points_N{N}_s0.csv")
            rows = [
                (int(win.labels[i, 0]), float(win.points[i, 0]))
                for i in range(win.n_points)
            ]
            _write_csv(ppath, config_text, ("k", "x"), rows)
            paths.append(ppath)
    return paths


_RUNNERS = {
    "green": _run_green,
    "covariance": _run_covariance,
    "corrector-scaling": _run_scaling,
    "energy": _run_energy,
}


def _field(obj, key: str, *types):
    """obj[key], required present and of one of `types`, else DiagnosticError."""
    if not isinstance(obj, dict) or key not in obj:
        raise DiagnosticError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise DiagnosticError(f"field {key!r} must be {expected}, got {value!r}")
    return value


def _render_scaling(payload: dict, lines: list[str]) -> None:
    _field(payload, "d", int)  # not shown here; _cmd_report groups by it
    gen = _field(payload, "generator", dict)
    gen_txt = " ".join(f"{k}={v}" for k, v in sorted(gen.items()))
    lines.append(f"  generator: {gen_txt}; seed {_field(payload, 'master_seed', int)}")
    verdict = _field(payload, "verdict", str)
    if verdict == "bounded":
        lines.append("  verdict: bounded (stationary up to translation)")
    else:
        lines.append(f"  verdict: {verdict}")
    fits = _field(payload, "fits", dict)
    ratio, ll_s, ll_r, la_s, la_r = (
        _field(fits, key, *_NUM, type(None))
        for key in ("boundedness_ratio", "loglog_slope", "loglog_r2", "loglin_slope", "loglin_r2")
    )

    def num(x):
        return "n/a" if x is None else f"{x:.4g}"

    lines.append(
        f"  fits: log-log slope {num(ll_s)} (R^2 {num(ll_r)}), |ln mu| slope "
        f"{num(la_s)} (R^2 {num(la_r)}), ratio {num(ratio)}"
    )
    checks = [
        (f"bounded: ratio <= {RATIO_BOUNDED}", ratio is not None and ratio <= RATIO_BOUNDED),
        (
            f"diverging-powerlaw: slope <= {LOGLOG_SLOPE_MAX} and R^2 >= {LOGLOG_R2_MIN}",
            ll_s is not None and ll_s <= LOGLOG_SLOPE_MAX
            and ll_r is not None and ll_r >= LOGLOG_R2_MIN,
        ),
        (
            f"diverging-log: affine R^2 >= {LOGLIN_R2_MIN}",
            la_r is not None and la_r >= LOGLIN_R2_MIN,
        ),
    ]
    for label, ok in checks:
        lines.append(f"    {label}: {'pass' if ok else 'fail'}")
    points = _field(payload, "points", list)
    capped = [p for p in points if _field(p, "capped", bool)]
    if capped:
        lines.append(
            f"  note: L-rule capped at L={_field(payload, 'l_cap', int, type(None))} for "
            f"{len(capped)} of {len(points)} grid points"
        )


def _render_green(payload: dict, lines: list[str]) -> None:
    d, L = _field(payload, "d", int), _field(payload, "L", int)
    mu, site_sum, wrap, resid = (
        _field(payload, key, *_NUM) for key in ("mu", "site_sum", "wrap_estimate", "residual_max")
    )
    lines.append(
        f"  d={d} L={L} mu={mu}: site sum {site_sum:.6g}, wrap {wrap:.3g}, residual {resid:.3g}"
    )
    for p, fit in sorted(_field(payload, "slopes", dict).items()):
        slope, expected = _field(fit, "slope", *_NUM), _field(fit, "expected_slope", *_NUM)
        ok = abs(slope - expected) <= 0.3
        lines.append(
            f"  p={p}: annulus slope {slope:.4g} vs expected "
            f"{expected:.4g} (within 0.3: {'pass' if ok else 'fail'})"
        )


def _render_covariance(payload: dict, lines: list[str]) -> None:
    alpha = _field(payload, "alpha_hat", str, *_NUM)
    if alpha == "indeterminate":
        lines.append("  decay exponent: indeterminate (no significant lags)")
    elif isinstance(alpha, str):
        raise DiagnosticError(
            f"field 'alpha_hat' must be a number or 'indeterminate', got {alpha!r}"
        )
    else:
        hw = _field(payload, "alpha_halfwidth", *_NUM, type(None))
        hw_txt = "" if hw is None else f" +/- {hw:.3g}"
        lines.append(f"  decay exponent alpha_hat = {alpha:.4g}{hw_txt}")
    cmf = _field(payload, "clamped_mass_fraction", *_NUM, type(None))
    if cmf is not None:
        lines.append(f"  clamped spectral mass fraction: {cmf:.3g}")
    for w in _field(payload, "warnings", list):
        lines.append(f"  warning: {w}")


def _render_energy(payload: dict, lines: list[str]) -> None:
    for row in _field(payload, "rows", list):
        N = _field(row, "N", int)
        mean, spread = _field(row, "density_mean", *_NUM), _field(row, "spread", *_NUM)
        lines.append(f"  N={N}: density {mean:.6g} (spread {spread:.3g})")
    decreases = _field(payload, "spread_decreases", bool)
    lines.append(f"  spread decreases with N: {'pass' if decreases else 'fail'}")
    agrees = _field(payload, "shift_agrees", bool, type(None))
    if agrees is None:
        lines.append("  shift invariance: skipped")
    else:
        lines.append(
            f"  shifted densities within 2x spread: {'pass' if agrees else 'fail'}"
        )
    for f in _field(payload, "flags", list):
        lines.append(f"  flag: {f}")


def _rendered(path: str, payload: dict, renderer) -> list[str]:
    """One artifact's report lines; a malformed payload raises DiagnosticError naming it."""
    lines = [f"  [{path}]"]
    try:
        renderer(payload, lines)
    except DiagnosticError as exc:
        raise DiagnosticError(f"malformed artifact {path}: {exc}") from None
    return lines


def _cmd_report(paths: list[str]) -> int:
    if not paths:
        sys.stderr.write(
            "usage: incrstat report ARTIFACT.json [ARTIFACT.json ...]\n"
            "no artifacts given\n"
        )
        return USAGE_EXIT_CODE
    loaded = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DiagnosticError(f"corrupt artifact {path}: {exc}") from None
        if not isinstance(payload, dict) or "artifact" not in payload:
            raise DiagnosticError(f"corrupt artifact {path}: missing 'artifact' field")
        loaded.append((path, payload))
    lines: list[str] = []
    scaling = [(p, d) for p, d in loaded if d["artifact"] == "scaling_report"]
    if scaling:
        lines.append("scaling studies")
        by_d: dict[int, list] = {}
        for p, d in scaling:
            block = _rendered(p, d, _render_scaling)  # validates d["d"]
            by_d.setdefault(d["d"], []).extend(block)
        for dim in sorted(by_d):
            lines.append(f" d={dim}")
            lines.extend(by_d[dim])
    for kind, title, renderer in (
        ("green_summary", "green diagnostics", _render_green),
        ("covariance_summary", "covariance estimates", _render_covariance),
        ("energy_summary", "energy densities", _render_energy),
    ):
        matching = [(p, d) for p, d in loaded if d["artifact"] == kind]
        if matching:
            lines.append(title)
            for p, payload in matching:
                lines.extend(_rendered(p, payload, renderer))
    unknown = [p for p, d in loaded if d["artifact"] not in
               ("scaling_report", "green_summary", "covariance_summary", "energy_summary")]
    for p in unknown:
        lines.append(f"unrecognized artifact kind in {p}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incrstat",
        description="Lattice correctors, Green functions and point-set energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_txt in (
        ("green", "Green table diagnostics: dyadic gradient norms, wrap, residual"),
        ("covariance", "empirical increment covariance and decay exponent"),
        ("corrector-scaling", "Monte Carlo E[phi_mu^2] across a mu-grid with verdict"),
        ("energy", "thermodynamic energy density of renewal point sets"),
    ):
        p = sub.add_parser(name, help=help_txt)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=None, help="worker process count")
    rep = sub.add_parser("report", help="render artifacts as a text summary")
    rep.add_argument("artifacts", nargs="*", help="JSON artifacts produced by runs")
    return parser


def _emit_error(exc: Exception, code: int) -> None:
    sys.stderr.write(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        )
        + "\n"
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT_CODE
    try:
        if args.command == "report":
            return _cmd_report(args.artifacts)
        values = cfg.load(args.command, args.config)
        out_dir = args.out or os.environ.get("INCRSTAT_OUT") or values["out"]
        if args.threads is not None:
            threads = args.threads
        else:
            env_threads = os.environ.get("INCRSTAT_THREADS")
            if env_threads is not None:
                try:
                    threads = int(env_threads)
                except ValueError:
                    raise ConfigError(
                        f"INCRSTAT_THREADS: not an integer: {env_threads!r}"
                    ) from None
            else:
                threads = values["threads"]
        if threads < 1:
            raise ConfigError(f"threads: must be at least 1, got {threads}")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"seed: must be nonnegative, got {args.seed}")
            values["seed"] = args.seed
        os.makedirs(out_dir, exist_ok=True)
        runner = _RUNNERS[args.command]
        if threads == 1:
            paths = runner(values, out_dir, map)
        else:
            ex = ProcessPoolExecutor(max_workers=threads)

            def pooled(fn, tasks):
                return ex.map(fn, tasks, chunksize=POOL_CHUNK)

            try:
                paths = runner(values, out_dir, pooled)
            finally:
                # on failure or interrupt, drop the queued tasks instead of running them
                ex.shutdown(cancel_futures=True)
        for p in paths:
            sys.stdout.write(p + "\n")
        return 0
    except (ConfigError, GeneratorError, DiagnosticError) as exc:  # BudgetError is a ConfigError
        _emit_error(exc, exc.exit_code)
        return exc.exit_code
    except OSError as exc:
        _emit_error(exc, IO_EXIT_CODE)
        return IO_EXIT_CODE
    except BrokenProcessPool as exc:
        _emit_error(exc, WORKER_EXIT_CODE)
        return WORKER_EXIT_CODE
    except KeyboardInterrupt as exc:
        _emit_error(exc, INTERRUPT_EXIT_CODE)
        return INTERRUPT_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
