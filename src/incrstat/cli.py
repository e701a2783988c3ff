"""Experiment orchestration: config in, deterministic CSV/JSON artifacts out.

Subcommands: report, and the four runs of the _COMMANDS table (green,
covariance, corrector-scaling, energy). A run's runner computes and
writes nothing: it calls its library study, given the pool's map as
map_fn, and returns its CSVs as (file name, header, rows) and its summary
dict. _write_artifacts then writes the CSVs in order and `<kind>.json`
last, each embedding the canonical config, so a run that fails before
writing leaves no artifact. Identical configs produce byte-identical
outputs regardless of worker count, because every realization draws
from a seed stream addressed by its own index and all reductions run in
index order.

Exit codes: 0 success, 2 config/usage, 3 budget, 4 generator,
5 diagnostic, 6 I/O, 130 interrupted.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

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
from .green import SLOPE_TOLERANCE, dyadic_gradient_norms, green_torus
from .lattice import TorusGeometry, backward_divergence
from .pointsets import IntervalLaw, PairPotential, study_window, thermodynamic_density
from .randfields import GeneratorSpec, IncrementLaw, empirical_covariance

__all__ = ["main"]

_NUM = (int, float)

_fmt = cfg.format_value


def _write_lines(path: str, *parts) -> None:
    """Write the lines of each of `parts` to a temp file beside `path`, then move it into place.

    The directory is made here, so a run that writes no artifact leaves
    none behind, and a run that fails mid-write leaves no truncated
    artifact.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for lines in parts:
                fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, config_text: str, header, rows) -> None:
    comments = [f"# {line}\n" for line in config_text.rstrip("\n").split("\n")]
    body = (",".join(_fmt(v) for v in row) + "\n" for row in rows)
    _write_lines(path, comments, [",".join(header) + "\n"], body)


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


def _run_green(values: dict, map_fn) -> tuple[list, dict]:
    geom = TorusGeometry(values["d"], values["L"])
    table = green_torus(values["mu"], geom)
    # residual of mu*G - laplacian(G) = delta, with -laplacian(G) = D*.(D G) = D*.grad;
    # the divergence is built first, so mu*G is its one temporary
    resid = backward_divergence(table.grad)
    resid += values["mu"] * table.values
    resid[(0,) * geom.d] -= 1.0
    residual_max = float(np.max(np.abs(resid, out=resid)))
    del resid
    rows = []
    slopes = {}
    for dn in dyadic_gradient_norms(table, values["p"]):
        rows.extend((dn.p, i, s) for i, s in dn.annuli)
        slopes[_fmt(float(dn.p))] = {
            "slope": dn.slope,
            "r2": dn.r2,
            "expected_slope": dn.expected_slope,
        }
    return [("green_dyadic.csv", ("p", "annulus", "sum"), rows)], {
        "d": geom.d,
        "L": geom.L,
        "mu": values["mu"],
        "site_sum": table.site_sum,
        "wrap_estimate": table.wrap_estimate,
        "residual_max": residual_max,
        "sup_grad_abs": max(float(np.max(np.abs(g))) for g in table.grad),
        "slopes": slopes,
    }


def _run_covariance(values: dict, map_fn) -> tuple[list, dict]:
    spec = _generator_spec(values)
    geom = TorusGeometry(values["d"], values["L"])
    d = geom.d
    # lag 0 once, every other lag length along each axis in turn
    axes = np.eye(d, dtype=int)
    lags = [m * e for m in sorted(set(values["lag_list"])) for e in axes[: d if m else 1]]
    est = empirical_covariance(spec, geom, values["n_samples"], values["seed"], lags, map_fn)
    rows = [
        (";".join(str(int(c)) for c in lag), l, lp, est.n_samples, float(est.cov[j, l, lp]),
         float(est.stderr[j, l, lp]))
        for j, lag in enumerate(est.lags)
        for l, lp in itertools.product(range(d), repeat=2)
    ]
    return [("covariance.csv", ("lag", "l", "lp", "n", "cov", "stderr"), rows)], {
        "generator": spec.describe(),
        "d": d,
        "L": geom.L,
        "n_samples": est.n_samples,
        "alpha_hat": "indeterminate" if est.alpha_hat is None else est.alpha_hat,
        "alpha_halfwidth": est.alpha_halfwidth,
        "n_fit_entries": est.n_fit_entries,
        "clamped_mass_fraction": est.clamped_mass_fraction,
        "warnings": sorted(est.warnings),
    }


def _run_scaling(values: dict, map_fn) -> tuple[list, dict]:
    report = scaling_study(
        _generator_spec(values),
        values["d"],
        mu_grid=values["mu_grid"],
        n_per_mu=values["n"],
        master_seed=values["seed"],
        l_rule_coefficient=values["l_rule_coefficient"],
        l_max=values["l_max"],
        memory_budget_mb=values["memory_budget_mb"],
        map_fn=map_fn,
    )
    return [("scaling.csv", report.CSV_HEADER, report.csv_rows())], report.to_dict()


def _run_energy(values: dict, map_fn) -> tuple[list, dict]:
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
    csvs = [("energy.csv", ("N", "seed", "energy", "density"), study.records())]
    if values["export_points"]:
        # the first study seed's positions at each size, cut from its window at
        # the largest size, which holds each smaller window's points bit for bit
        win = study_window(law, V, study.sizes[-1], values["seed"], 0)
        k, x = win.labels[:, 0], win.points[:, 0]
        for N in study.sizes:
            keep = (x >= -V.cutoff) & (x <= N + V.cutoff)
            rows = zip(k[keep].tolist(), x[keep].tolist())
            csvs.append((f"points_N{N}_s0.csv", ("k", "x"), rows))
    return csvs, {
        "potential": {"kind": V.kind, "cutoff": V.cutoff, "exponent": V.exponent},
        "law": {"kind": law.kind, "a": law.a, "b": law.b},
        "sizes": list(study.sizes),
        "n_seeds": study.n_seeds,
        "rows": [{"N": N, "density_mean": m, "spread": s} for N, m, s in study.rows()],
        "spread_decreases": study.spread_decreases,
        "shift": study.shift,
        "shift_agrees": study.shift_agrees,
    }


def _write_artifacts(
    out_dir: str, subcommand: str, values: dict, csvs: list, summary: dict
) -> list[str]:
    """Write a run's CSVs in order, then its summary JSON; return the paths written.

    Every artifact embeds the run's canonical config text, and the summary
    names its kind. A runner computes everything before this writes
    anything, so a run that fails before writing leaves no artifact.
    """
    config_text = cfg.canonical_text(subcommand, values)
    paths = []
    for name, header, rows in csvs:
        paths.append(os.path.join(out_dir, name))
        _write_csv(paths[-1], config_text, header, rows)
    kind = _COMMANDS[subcommand].kind
    paths.append(os.path.join(out_dir, kind + ".json"))
    summary = {**summary, "artifact": kind, "config_text": config_text}
    _write_lines(paths[-1], [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    return paths


def _field(obj, key: str, *types):
    """obj[key], required present and of one of `types`, else DiagnosticError."""
    if not isinstance(obj, dict) or key not in obj:
        raise DiagnosticError(f"missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
        raise DiagnosticError(f"field {key!r} must be {expected}, got {value!r}")
    return value


def _render_scaling(payload: dict, lines: list[str]) -> int:
    d = _field(payload, "d", int)  # not shown here: _cmd_report groups by it
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
    for verdict_name, rule, passes, _ in verdict_checks(fits):
        lines.append(f"    {verdict_name}: {rule}: {'pass' if passes else 'fail'}")
    points = _field(payload, "points", list)
    capped = [p for p in points if _field(p, "capped", bool)]
    if capped:
        lines.append(
            f"  note: L-rule capped at L={_field(payload, 'l_cap', int, type(None))} for "
            f"{len(capped)} of {len(points)} grid points"
        )
    return d


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
        ok = abs(slope - expected) <= SLOPE_TOLERANCE
        lines.append(
            f"  p={p}: annulus slope {slope:.4g} vs expected "
            f"{expected:.4g} (within {SLOPE_TOLERANCE}: {'pass' if ok else 'fail'})"
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
    agrees = _field(payload, "shift_agrees", bool)
    lines.append(f"  shifted densities within 2x spread: {'pass' if agrees else 'fail'}")


class _Command(NamedTuple):
    """A run subcommand: help line, runner, and its summary's kind, report title and renderer."""

    help: str
    run: Callable
    kind: str
    title: str
    render: Callable


_COMMANDS = {
    "green": _Command(
        "Green table diagnostics: dyadic gradient norms, wrap, residual",
        _run_green, "green_summary", "green diagnostics", _render_green,
    ),
    "covariance": _Command(
        "empirical increment covariance and decay exponent",
        _run_covariance, "covariance_summary", "covariance estimates", _render_covariance,
    ),
    "corrector-scaling": _Command(
        "Monte Carlo E[phi_mu^2] across a mu-grid with verdict",
        _run_scaling, "scaling_report", "scaling studies", _render_scaling,
    ),
    "energy": _Command(
        "thermodynamic energy density of renewal point sets",
        _run_energy, "energy_summary", "energy densities", _render_energy,
    ),
}


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
    for command in _COMMANDS.values():
        by_dim: dict = {}
        for path, payload in loaded:
            if payload["artifact"] == command.kind:
                block = [f"  [{path}]"]
                try:  # a renderer returns the dimension its block is grouped under, or None
                    dim = command.render(payload, block)
                except DiagnosticError as exc:
                    raise DiagnosticError(f"malformed artifact {path}: {exc}") from None
                by_dim.setdefault(dim, []).extend(block)
        if by_dim:
            lines.append(command.title)
        for dim in sorted(by_dim):  # one kind's keys are all None or all dimensions
            if dim is not None:
                lines.append(f" d={dim}")
            lines.extend(by_dim[dim])
    kinds = [command.kind for command in _COMMANDS.values()]
    for path, payload in loaded:
        if payload["artifact"] not in kinds:
            lines.append(f"unrecognized artifact kind in {path}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incrstat",
        description="Lattice correctors, Green functions and point-set energies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker thread count, capped at the CPU count; a d=1 "
            "corrector-scaling run is always serial (default: 1)",
        )
    rep = sub.add_parser("report", help="render artifacts as a text summary")
    rep.add_argument("artifacts", nargs="*", help="JSON artifacts produced by runs")
    return parser


def _windowed_map(ex: ThreadPoolExecutor, depth: int, fn, items):
    """ex.map(fn, items) in order, with at most `depth` tasks submitted and not yet yielded."""
    pending = collections.deque()
    for item in items:
        pending.append(ex.submit(fn, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _fix_heap_thresholds() -> None:
    """On glibc, pin malloc's mmap and trim thresholds at 32 and 64 MiB, where glibc stops them.

    Left to glibc, a d = 1 scaling run's page faults (5.7k or 13.4k) turned on its checkout path.
    """
    if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):  # built against glibc
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD in glibc's malloc.h
        mallopt(-1, 64 * 2**20)  # M_TRIM_THRESHOLD


def _emit_error(exc: Exception, code: int) -> int:
    """Write exc as one JSON line on stderr; return the exit code."""
    error = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    sys.stderr.write(json.dumps(error) + "\n")
    return code


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
        run = _COMMANDS[args.command].run
        _fix_heap_thresholds()
        # artifacts do not depend on the worker count, and more workers than
        # cores buy nothing, so an outsized --threads starts no more threads
        workers = min(args.threads, os.cpu_count() or 1)
        if args.command == "corrector-scaling" and values["d"] == 1:
            # a d=1 chunk is a few small numpy calls under the GIL: threads
            # only contend for it, and the pool ran slower than serial
            workers = 1
        if workers == 1:
            csvs, summary = run(values, map)
        else:
            ex = ThreadPoolExecutor(max_workers=workers)
            try:
                # a bounded window keeps a run's memory flat in its task count
                csvs, summary = run(values, functools.partial(_windowed_map, ex, 2 * workers))
            finally:
                # on failure or interrupt, drop the queued tasks instead of running them
                ex.shutdown(cancel_futures=True)
        for p in _write_artifacts(args.out, args.command, values, csvs, summary):
            sys.stdout.write(p + "\n")
        return 0
    except (ConfigError, GeneratorError, DiagnosticError) as exc:  # BudgetError is a ConfigError
        return _emit_error(exc, exc.exit_code)
    except OSError as exc:
        return _emit_error(exc, IO_EXIT_CODE)
    except KeyboardInterrupt as exc:
        return _emit_error(exc, INTERRUPT_EXIT_CODE)


if __name__ == "__main__":
    sys.exit(main())
