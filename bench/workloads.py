"""The benchmark's workloads: one `spiralglue run` config each, built from a seed.

Every workload shares the parameters eps = delta = gamma = zeta = 0.01, a
3-level schedule with r1 = 1 and margin 0.01. The seed drives only the point
generator; the program sees nothing but the generated config file.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DEFAULT_SEED = 7
LEVELS = 3

_COMMON = {
    "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
    "schedule": {"r1": 1.0, "levels": LEVELS, "margin": 0.01},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    per_level: int
    placement: str
    body: dict  # source, bank and optional target sections of the config
    outputs: tuple[str, ...] = ("report",)

    def points(self, per_level: int | None = None) -> int:
        """Point count: per_level points on each level plus the origin."""
        return 1 + LEVELS * (per_level or self.per_level)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-l1-121",
            "decompose dominates (about 62% of an op): l1 dim 3, mixed placement, 121 points",
            per_level=40,
            placement="mixed",
            body={
                "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
                "bank": {"strategy": "block_shift", "count": 6},
            },
        ),
        Workload(
            "plateau-l2-151",
            "pair sweep and certification dominate; the only workload writing pairs CSV and images",
            per_level=50,
            placement="plateau",
            body={
                "source": {"dim": 16, "norm": {"norm": "lp", "p": 2.0}},
                "bank": {"strategy": "block_shift", "count": 6},
            },
            outputs=("report", "pairs_csv", "images"),
        ),
        Workload(
            "l2-to-l1-wide",
            "certification on 1536-wide target vectors dominates (about 75%); decompose idles",
            per_level=10,
            placement="mixed",
            body={
                "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
                "target": {"dim": 1536, "norm": {"norm": "lp", "p": 1.0}},
                "bank": {
                    "strategy": "quadrature_l2_to_l1",
                    "count": 6,
                    "directions": 256,
                    "seed": 3,
                    "certify_random": 4096,
                },
            },
        ),
    )
}

_SUFFIX = {"report": "report.json", "pairs_csv": "pairs.csv", "images": "images.json"}


def make_config(
    w: Workload, seed: int, workdir: str, per_level: int | None = None
) -> tuple[dict, dict[str, str]]:
    """The run config for one workload and seed, plus the output paths it names.

    per_level overrides the workload's size; only the benchmark's own tests
    use it.
    """
    cfg = copy.deepcopy(_COMMON)
    cfg.update(copy.deepcopy(w.body))
    cfg["points"] = {
        "generator": {
            "seed": int(seed),
            "per_level": per_level or w.per_level,
            "placement": w.placement,
        }
    }
    outputs = {key: f"{workdir}/{_SUFFIX[key]}" for key in w.outputs}
    cfg["output"] = dict(outputs)
    return cfg, outputs
