"""The three benchmark workloads, each a fixed round of experiment configs.

A round is the same list of ``cli.run`` calls every time it is repeated, so
percentiles taken over rounds compare like with like.  Every config passes
at seeds 0-60 on the code this benchmark was written against.
"""

from __future__ import annotations

import os
import sys

QUBIT_EXPERIMENTS = (
    "pechukas", "theorem1", "theorem2", "theorem3", "lemma1",
    "appendix", "compat-domain", "broadcast", "table1",
)

WORKLOADS = {
    # interpreter-bound: ~3k single-matrix eigensolves, ~2.2k state draws and
    # no induced maps per round
    "qubit-probes": [dict(experiment=e, samples=100) for e in QUBIT_EXPERIMENTS],
    # 202 induced maps and Choi eigensolves, no positivity probes
    "cp-dynamics": [
        dict(experiment="dynamics-cp", samples=50, dim_s=d, dim_e=d) for d in (2, 3)
    ],
    # a 64x64 joint space: BLAS/LAPACK-bound, the largest arrays
    "wide-d4": [dict(experiment="dynamics-cp", samples=30, dim_s=4, dim_e=4)] + [
        dict(experiment=e, samples=100, dim_s=4, dim_e=4)
        for e in ("compat-domain", "lemma1", "theorem2")
    ],
}

DEFAULT_SEED = 7


def build_configs(config_cls, workload: str, seed: int) -> list:
    """One ``config_cls`` instance per experiment of the workload's round."""
    return [config_cls(seed=seed, **fields) for fields in WORKLOADS[workload]]


def label(config) -> str:
    """Short name of a config, as used in oracle messages."""
    return f"{config.experiment}@({config.dim_s},{config.dim_e})"


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_cli(root: str):
    """Import ``assignlab.cli`` from ``<root>/src`` and from nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "assignlab", "cli.py")):
        raise ProgramMissing(f"no program source at {src}/assignlab")
    sys.path.insert(0, src)
    from assignlab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"assignlab was imported from {cli.__file__}, not {src}")
    return cli
