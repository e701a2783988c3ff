"""Experiment orchestration: config in, deterministic CSV/JSON artifacts out.

Subcommands: green, covariance, corrector-scaling, energy, report.
Artifacts embed the canonical config; identical configs produce
byte-identical outputs regardless of worker count, because every
realization draws from a seed stream addressed by its own index and all
reductions run in index order.

Exit codes: 0 success, 2 config/usage, 3 budget, 4 generator,
5 diagnostic, 6 I/O, 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import config as cfg
from .corrector import ScalingFits, scaling_study, verdict_checks
from .errors import (
    INTERRUPT_EXIT_CODE,
    IO_EXIT_CODE,
    USAGE_EXIT_CODE,
    ConfigError,
    DiagnosticError,
    GeneratorError,
)
from .green import dyadic_gradient_norms, green_torus
from .lattice import TorusGeometry, backward_divergence
from .pointsets import IntervalLaw, PairPotential, study_window, thermodynamic_density
from .randfields import GeneratorSpec, IncrementLaw, empirical_covariance

__all__ = ["main"]

_NUM = (int, float)

_fmt = cfg.format_value


def _write_lines(path: str, lines) -> None:
    """Write `lines` to a temp file beside `path`, then move it into place.

    The directory is made here, so a run that writes no artifact leaves
    none behind, and a run that fails mid-write leaves no truncated
    artifact.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, config_text: str, header, rows) -> None:
    comments = [f"# {line}\n" for line in config_text.rstrip("\n").split("\n")]
    body = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    _write_lines(path, itertools.chain(comments, [",".join(header) + "\n"], body))


def _write_json(path: str, obj: dict) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _built(keys: str, cls, *args):
    """cls(*args), with a ValueError from its checks reported as a ConfigError on `keys`."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _generator_spec(values: dict) -> GeneratorSpec:
    kind = values["generator"]
    law = None
    if kind in ("iid", "gradient"):
        law = _built("law_param", IncrementLaw, values["law"], values["law_param"])
    if values["axis"] >= values["d"]:
        raise ConfigError(f"axis: must be < d, got {values['axis']} for d={values['d']}")
    return _built("alpha", GeneratorSpec, kind, values["axis"], law, values["alpha"])


def _run_green(values: dict, out_dir: str, map_fn) -> list[str]:
    geom = TorusGeometry(values["d"], values["L"])
    table = green_torus(values["mu"], geom)
    # residual of mu*G - laplacian(G) = delta, with -laplacian(G) = D*.(D G) = D*.grad
    resid = values["mu"] * table.values + backward_divergence(table.grad)
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


def _run_covariance(values: dict, out_dir: str, map_fn) -> list[str]:
    spec = _generator_spec(values)
    geom = TorusGeometry(values["d"], values["L"])
    n = values["n_samples"]
    samples = list(map_fn(functools.partial(spec.realize, geom, values["seed"]), range(n)))
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
    law = _built("law_a/law_b", IntervalLaw, values["law"], values["law_a"], values["law_b"])
    V = _built(
        "potential", PairPotential, values["potential"], values["cutoff"], values["exponent"]
    )
    study = thermodynamic_density(
        law,
        V,
        values["sizes"],
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
        for N in study.sizes:
            win = study_window(law, V, N, values["seed"], 0)
            ppath = os.path.join(out_dir, f"points_N{N}_s0.csv")
            rows = zip(win.labels[:, 0].tolist(), win.points[:, 0].tolist())
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
    fits_obj = _field(payload, "fits", dict)
    fits = ScalingFits(**{
        f.name: _field(fits_obj, f.name, *_NUM, type(None))
        for f in dataclasses.fields(ScalingFits)
    })

    def num(x):
        return "n/a" if x is None else f"{x:.4g}"

    lines.append(
        f"  fits: log-log slope {num(fits.loglog_slope)} (R^2 {num(fits.loglog_r2)}), "
        f"|ln mu| slope {num(fits.loglin_slope)} (R^2 {num(fits.loglin_r2)}), "
        f"ratio {num(fits.boundedness_ratio)}"
    )
    for verdict_name, rule, passes in verdict_checks(fits):
        lines.append(f"    {verdict_name}: {rule}: {'pass' if passes else 'fail'}")
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
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--threads", type=int, default=1, help="worker thread count (default: 1)")
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
        values = cfg.load(args.command, args.config, seed=args.seed)
        if args.threads < 1:
            raise ConfigError(f"threads: must be at least 1, got {args.threads}")
        runner = _RUNNERS[args.command]
        if args.threads == 1:
            paths = runner(values, args.out, map)
        else:
            ex = ThreadPoolExecutor(max_workers=args.threads)
            try:
                paths = runner(values, args.out, ex.map)
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
    except KeyboardInterrupt as exc:
        _emit_error(exc, INTERRUPT_EXIT_CODE)
        return INTERRUPT_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
