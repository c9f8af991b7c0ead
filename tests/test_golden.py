"""Byte-identity of `spiralglue run`'s outputs on small runs of five shapes.

Each case runs the whole pipeline at a fixed seed and compares SHA-256
digests of the masked report (the `timings` key and `config.output`
removed), the pairs CSV, the images file and the stdout line with digests
recorded for this numpy version, BLAS kernel and numpy's elementwise SIMD
kernels (see kernel_probe); any other probe skips. A change that is meant to
keep every output byte-identical must keep these digests; one that changes
an output on purpose must record new ones and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from spiralglue.cli import main


def kernel_probe() -> str:
    """A digest of the bits of a few seeded calls. The BLAS calls are a
    1536-term dot, stacked 256 x 2 matrix-vector products (a quadrature
    map's hull products) and stacked 16-term row dots: a BLAS kernel that
    groups or accumulates their terms otherwise gives other bits here, and
    may give other bits in the maps' products. The elementwise calls are
    numpy's array power (an lp norm's powers and root), exp, log, cos and
    sin on 2**17 values: numpy sends them to SIMD kernels chosen for the CPU
    (and NPY_DISABLE_CPU_FEATURES), whose power, exp and log differ from
    libm's, and from each other, on some inputs."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 1536))
    hull, x = rng.standard_normal((256, 2)), rng.standard_normal((4, 2))
    rows = rng.standard_normal((4, 16))
    v = rng.uniform(0.0, 2.0, 1 << 17)
    calls = (
        np.dot(a, b),
        np.matmul(hull, x[:, :, None]),
        np.matmul(rows[:, None, :], rows[:, :, None]),
        v**3.0,
        v ** (1 / 1.5),
        np.exp(v),
        np.log(v),
        np.cos(v),
        np.sin(v),
    )
    return hashlib.sha256(b"".join(np.asarray(v).tobytes() for v in calls)).hexdigest()[:16]


# the bits of every norm and product come from numpy's kernels and its
# BLAS's, so the digests hold for the numpy version and the kernels (by
# their probe) they were recorded with
KERNEL = (np.__version__, kernel_probe())

_COMMON = {
    "params": {"eps": 0.01, "delta": 0.01, "gamma": 0.01, "zeta": 0.01},
    "schedule": {"r1": 1.0, "levels": 3, "margin": 0.01},
}

CASES = {
    "dense-l1": {
        "source": {"dim": 3, "norm": {"norm": "lp", "p": 1.0}},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 40, "placement": "mixed"}},
    },
    "plateau-l2": {
        "source": {"dim": 16, "norm": {"norm": "lp", "p": 2.0}},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 50, "placement": "plateau"}},
    },
    "l2-to-l1-wide": {
        "source": {"dim": 2, "norm": {"norm": "lp", "p": 2.0}},
        "target": {"dim": 1536, "norm": {"norm": "lp", "p": 1.0}},
        "bank": {
            "strategy": "quadrature_l2_to_l1",
            "count": 6,
            "directions": 256,
            "seed": 3,
            "certify_random": 4096,
        },
        "points": {"generator": {"seed": 7, "per_level": 10, "placement": "mixed"}},
    },
    # lp with p other than 1 and 2, and the max: the certify kernel's
    # elementwise passes and its max, on a 48-wide target
    "block-shift-l3": {
        "source": {"dim": 8, "norm": {"norm": "lp", "p": 3.0}},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 12, "placement": "mixed"}},
    },
    "block-shift-linf": {
        "source": {"dim": 8, "norm": {"norm": "lp", "p": "inf"}},
        "bank": {"strategy": "block_shift", "count": 6},
        "points": {"generator": {"seed": 7, "per_level": 12, "placement": "mixed"}},
    },
}

DIGESTS = {
    # OpenBLAS 0.3.31's SkylakeX kernel, the default on an AVX-512 Xeon, and
    # numpy's AVX-512 elementwise kernels
    ("2.4.6", "fd189bd4c52dc20a"): {
        "block-shift-l3": {
            "report": "b12cd5efd1ad61b04d28dd1653e4a315c27e15a038a3336cd41f89293cf4aab1",
            "pairs_csv": "a88181750b10bbbf8020a3dbc4becb539053ee53f290efcaabe1917a4053fb5d",
            "images": "6527351afd7e7a717706a29780c605ecea643b042bf400d1c8d492547983e067",
            "stdout": "48afed8e1ce579ca7a44a1a0bf044fd58ec0d09b1dc5f59742a31c551b37e269",
        },
        "block-shift-linf": {
            "report": "b9f11ddbf80173ffa4aa3c045bd5a59f76de466f7671028f20b0c9ff9ef9255e",
            "pairs_csv": "746ebb09450bdd1019f50c44cc3ba43f53ca93fccf1dccfb9182724f717ffe03",
            "images": "d182b02cb6d04f045aafb3262d1840e3c751aa013e9fcf244b43d82bb1e1a2d5",
            "stdout": "8730e11ba3831a04ed048067d6063014a1bfda857f000406fc6a47eaa1af3102",
        },
        "dense-l1": {
            "report": "16205a8e34b7d6f42187585b08fe06cc9ed190100dd65d1c8811b5db421b30d7",
            "pairs_csv": "7a2f61494fa2e35e9a1a3045eff02fc5eeb3971a7367d14f3d0179290af676fb",
            "images": "4e8ddedf1227645f285bfb4e600287765f6a258750b326956d29bca47961dd0f",
            "stdout": "dcbb6d487bb76a8053c3d1a5b8455ab2a681f19121dc434b0432a8e5511c2758",
        },
        "l2-to-l1-wide": {
            "report": "9792be6edf2e42c1fe1fb204e28bc81f1dc8c244bb1c92463b6e45f2a72a2de5",
            "pairs_csv": "22e507ac1fab6fc3fcb803f13c3574d16eb0430c656daad052cc32fe159c7035",
            "images": "cdd717f844913097628fa558ce0c31459ee3c3043ef91f23df486f61d02d5c86",
            "stdout": "a4f5e3c878bb6f09010d036465515300cf4d18aa143c6516960df84dad32fdb7",
        },
        "plateau-l2": {
            "report": "ac347169e7c4f8358b2e9b223ae0b3a0caaf9521965a22e14e938aa15a4a2157",
            "pairs_csv": "fcb5a667f602d3495aca29e459c884104d14dc7a623481c655008b75cb8f11eb",
            "images": "e0dfc9d374946983e40bba2897bb9caa7aa52f06b34cc3f8ac3e71aaf9666f24",
            "stdout": "ef839381bf54f088e18487d4907dbbf2964c57f9d79f8d852781b4c204f07fec",
        },
    },
    # its generic Katmai kernel, under OPENBLAS_CORETYPE=Prescott
    ("2.4.6", "309cb085a9732680"): {
        "block-shift-l3": {
            "report": "b12cd5efd1ad61b04d28dd1653e4a315c27e15a038a3336cd41f89293cf4aab1",
            "pairs_csv": "a88181750b10bbbf8020a3dbc4becb539053ee53f290efcaabe1917a4053fb5d",
            "images": "6527351afd7e7a717706a29780c605ecea643b042bf400d1c8d492547983e067",
            "stdout": "48afed8e1ce579ca7a44a1a0bf044fd58ec0d09b1dc5f59742a31c551b37e269",
        },
        "block-shift-linf": {
            "report": "b9f11ddbf80173ffa4aa3c045bd5a59f76de466f7671028f20b0c9ff9ef9255e",
            "pairs_csv": "746ebb09450bdd1019f50c44cc3ba43f53ca93fccf1dccfb9182724f717ffe03",
            "images": "d182b02cb6d04f045aafb3262d1840e3c751aa013e9fcf244b43d82bb1e1a2d5",
            "stdout": "8730e11ba3831a04ed048067d6063014a1bfda857f000406fc6a47eaa1af3102",
        },
        "dense-l1": {
            "report": "16205a8e34b7d6f42187585b08fe06cc9ed190100dd65d1c8811b5db421b30d7",
            "pairs_csv": "7a2f61494fa2e35e9a1a3045eff02fc5eeb3971a7367d14f3d0179290af676fb",
            "images": "4e8ddedf1227645f285bfb4e600287765f6a258750b326956d29bca47961dd0f",
            "stdout": "dcbb6d487bb76a8053c3d1a5b8455ab2a681f19121dc434b0432a8e5511c2758",
        },
        "l2-to-l1-wide": {
            "report": "d3eda3079a1c7e01f3f48e85038ccff854af31d036105b416216ef4da357af41",
            "pairs_csv": "8025af8b854583a2abd785423def977557a8045ae349089b5053d18092b35006",
            "images": "f64dbf66d440b4a60c127f5b8314ab4874891526624016d962005155c9971690",
            "stdout": "a4f5e3c878bb6f09010d036465515300cf4d18aa143c6516960df84dad32fdb7",
        },
        "plateau-l2": {
            "report": "281783e0c032675495ad106112eea496ed37caaf4224701555164ec49bf267be",
            "pairs_csv": "6a1b8e6ca4e632c320ff7e34f9dac9b1447cd04717059a2d7c87209c83f744ab",
            "images": "e2957acecad6a51a08f0d6e27a7aeb6e60cc393a7a71ea889a1efb9a7b2e670e",
            "stdout": "81f8d3f19865d8bd2ed556c2578861042ebf799712ac49228a331d601220170e",
        },
    },
}
# the SkylakeX kernel with numpy's elementwise kernels for a CPU without
# AVX-512, under NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4":
# the l3 norm's powers and roots take other bits, which move the ratio or
# a slack of 54 of block-shift-l3's 666 pairs in the last bits; every other
# output keeps its digest
_SKYLAKEX = DIGESTS[("2.4.6", "fd189bd4c52dc20a")]
DIGESTS[("2.4.6", "db81e9a5dbccfe53")] = {
    **_SKYLAKEX,
    "block-shift-l3": {
        **_SKYLAKEX["block-shift-l3"],
        "pairs_csv": "db2d218dd04cf62e3cec6ca786244482b251db09110ecda94b7f5f57e7c9d8c7",
    },
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(name, tmp_path, capsys) -> dict:
    cfg = {**_COMMON, **CASES[name]}
    paths = {key: tmp_path / f"{key}.out" for key in ("report", "pairs_csv", "images")}
    cfg["output"] = {key: str(path) for key, path in paths.items()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads(paths["report"].read_text())
    del report["timings"], report["config"]["output"]
    masked = json.dumps(report, indent=2, sort_keys=True)
    return {
        "report": _digest(masked.encode()),
        "pairs_csv": _digest(paths["pairs_csv"].read_bytes()),
        "images": _digest(paths["images"].read_bytes()),
        "stdout": _digest(capsys.readouterr().out.encode()),
    }


@pytest.mark.skipif(
    KERNEL not in DIGESTS,
    reason=f"digests were recorded under the kernels {sorted(DIGESTS)} (numpy version, "
    f"kernel probe), which set the bits; this is numpy {KERNEL[0]} with probe {KERNEL[1]}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    assert _outputs(name, tmp_path, capsys) == DIGESTS[KERNEL][name]
