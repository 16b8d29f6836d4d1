"""The three benchmark workloads and the settings each one drives.

A workload is one registered holonet benchmark plus the overrides that
`bench.run_benchmark` accepts but the `holonet bench` CLI does not expose.
Every run of a workload trains from the seed given on the command line, so
two runs with one seed are bit-identical. The tiny settings exist for the
self-test: they exercise the same code paths in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    bench: str              # registered holonet benchmark it drives
    oracle: str             # lru-cached oracle in holonet.bench, cleared per run
    settings: Callable      # (holonet.train, tiny) -> run_benchmark overrides
    rel_l2_ceiling: float   # worst component error a correct run may report
    oracle_residual_limit: float = 0.0  # plate-hole traction residual guard


def _plate_hole(train, tiny):
    return dict(epochs=6, n_boundary=60) if tiny else dict(epochs=500)


def _helmholtz_square(train, tiny):
    # the registered 1500 epochs: with fewer, some seeds are still on the
    # loss plateau and no error ceiling separates them from broken training
    return dict(epochs=6, n_boundary=60, oracle_n=140) if tiny else {}


def _lshape_rad(train, tiny):
    # the criterion-7 adaptive schedule; the tiny variant switches early
    if tiny:
        rad = train.RadConfig(switch_epoch=4, pool_size=400, reset_optimizer=False)
        return dict(epochs=8, lr=1e-3, n_boundary=80, oracle_h=2e-2, rad=rad)
    rad = train.RadConfig(switch_epoch=1000, pool_size=10_000, reset_optimizer=False)
    return dict(epochs=2000, lr=1e-3, rad=rad)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plate-hole", "plate-hole", "_plate_hole_oracle", _plate_hole,
                 rel_l2_ceiling=3.0, oracle_residual_limit=1e-4),
        Workload("helmholtz-square", "helmholtz-square",
                 "_helmholtz_square_oracle", _helmholtz_square,
                 rel_l2_ceiling=0.3),
        Workload("lshape-rad", "lshape-poisson", "_lshape_oracle", _lshape_rad,
                 rel_l2_ceiling=0.5),
    )
}
