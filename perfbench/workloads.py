"""The four CLI workloads: config text, subcommand, work size and checks.

Each workload is one `incrstat` subcommand run on a fixed config; only the
master seed varies, and it reaches the program through `--seed`. The sizes
are chosen so that one invocation takes one to two seconds on the
reference machine (see README.md), which gives each timed run about ten
or more fresh-process invocations to take a median over.
"""

from __future__ import annotations

from dataclasses import dataclass

# The default mu-grid of `incrstat corrector-scaling` (2^-2 .. 2^-12).
# The checks compare the artifact's grid with this independent copy.
MU_GRID = tuple(2.0 ** (-2 - 2 * i) for i in range(6))
L_RULE = 8.0


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config_text: str
    items: int  # units of work per invocation, for items_per_s
    params: dict


def _scaling(name: str, d: int, n: int, l_max: int | None, verdict: str) -> Workload:
    text = (
        "generator = iid\n"
        "law = uniform_centered\n"
        "law_param = 1.0\n"
        f"d = {d}\n"
        f"n = {n}\n"
    )
    if l_max is not None:
        text += f"l_max = {l_max}\n"
    return Workload(
        name=name,
        subcommand="corrector-scaling",
        config_text=text,
        items=n * len(MU_GRID),  # one certified corrector solve per (mu, realization)
        # uniform_centered(1): variance 1/12, fourth cumulant 1/80 - 3/144
        params={"d": d, "n": n, "l_max": l_max, "var": 1.0 / 12.0, "cum4": -1.0 / 120.0,
                "verdict": verdict},
    )


SCALING_D3 = _scaling("scaling-d3-capped", d=3, n=4, l_max=96, verdict="bounded")
SCALING_D1 = _scaling("scaling-d1", d=1, n=1000, l_max=None, verdict="diverging-powerlaw")

ENERGY = Workload(
    name="energy-renewal",
    subcommand="energy",
    config_text=(
        "law = uniform\n"
        "law_a = 0.5\n"
        "law_b = 1.5\n"
        "potential = indicator\n"
        "cutoff = 2.0\n"
        "sizes = 256,1024,4096\n"
        "n_seeds = 8\n"
        "shift = 8\n"
        "export_points = true\n"
    ),
    items=3 * 8,  # one (box size, seed) energy evaluation each
    params={"lo": 0.5, "hi": 1.5, "cutoff": 2.0, "sizes": (256, 1024, 4096), "n_seeds": 8},
)

COVARIANCE = Workload(
    name="covariance-decay",
    subcommand="covariance",
    config_text=(
        "generator = decay_alpha\n"
        "alpha = 3.0\n"
        "d = 3\n"
        "L = 32\n"
        "n_samples = 96\n"
    ),
    items=96,  # one increment sample each
    params={"alpha": 3.0, "d": 3, "L": 32, "n_samples": 96, "lags": (0, 1, 2, 4, 8)},
)

WORKLOADS = {w.name: w for w in (SCALING_D3, SCALING_D1, ENERGY, COVARIANCE)}
