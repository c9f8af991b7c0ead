"""Byte-identity of `spiralglue run`'s outputs on small runs of five shapes.

Each case runs the whole pipeline at a fixed seed and compares SHA-256
digests of the masked report (the `timings` key and `config.output`
removed), the pairs CSV, the images file and the stdout line with digests
recorded for this numpy version. A change that is meant to keep every
output byte-identical must keep these digests; one that changes an output
on purpose must record new ones and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from spiralglue.cli import main

# the bits of every norm and product come from numpy's (and its BLAS's)
# kernels, so the digests hold for the numpy version they were recorded with
NUMPY_VERSION = "2.4.6"

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
    "dense-l1": {
        "report": "a4b1deb1f9c3acf476926ca55b25658953b1ff358235632deac68804f7063749",
        "pairs_csv": "0b8f340430d33072d0c0f1304e969d8b3e8de2fd72978036fb051b181738933b",
        "images": "4e8ddedf1227645f285bfb4e600287765f6a258750b326956d29bca47961dd0f",
        "stdout": "dcbb6d487bb76a8053c3d1a5b8455ab2a681f19121dc434b0432a8e5511c2758",
    },
    "plateau-l2": {
        "report": "7d910bf5cb6469d9a7357c1eaaa6d7844a1c339df029357942799b5312e398c8",
        "pairs_csv": "fcb5a667f602d3495aca29e459c884104d14dc7a623481c655008b75cb8f11eb",
        "images": "e0dfc9d374946983e40bba2897bb9caa7aa52f06b34cc3f8ac3e71aaf9666f24",
        "stdout": "ef839381bf54f088e18487d4907dbbf2964c57f9d79f8d852781b4c204f07fec",
    },
    "l2-to-l1-wide": {
        "report": "f5ebc43f4adcc4b9c727576444f699f817a9a1d0dd9c8789804951ce8a141413",
        "pairs_csv": "8c30304826101d117051ef35ad82b775d75bbd32f906300f54dc510d4d0b7c43",
        "images": "cdd717f844913097628fa558ce0c31459ee3c3043ef91f23df486f61d02d5c86",
        "stdout": "a4f5e3c878bb6f09010d036465515300cf4d18aa143c6516960df84dad32fdb7",
    },
    "block-shift-l3": {
        "report": "b12cd5efd1ad61b04d28dd1653e4a315c27e15a038a3336cd41f89293cf4aab1",
        "pairs_csv": "03a1768ec8eb8c238e16efab81aa470ce7629e542f4a05660f372caf2ea710d6",
        "images": "6527351afd7e7a717706a29780c605ecea643b042bf400d1c8d492547983e067",
        "stdout": "48afed8e1ce579ca7a44a1a0bf044fd58ec0d09b1dc5f59742a31c551b37e269",
    },
    "block-shift-linf": {
        "report": "b9f11ddbf80173ffa4aa3c045bd5a59f76de466f7671028f20b0c9ff9ef9255e",
        "pairs_csv": "746ebb09450bdd1019f50c44cc3ba43f53ca93fccf1dccfb9182724f717ffe03",
        "images": "d182b02cb6d04f045aafb3262d1840e3c751aa013e9fcf244b43d82bb1e1a2d5",
        "stdout": "8730e11ba3831a04ed048067d6063014a1bfda857f000406fc6a47eaa1af3102",
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
    np.__version__ != NUMPY_VERSION,
    reason=f"digests were recorded with numpy {NUMPY_VERSION}, whose kernels set the bits; "
    f"this is numpy {np.__version__}",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path, capsys):
    assert _outputs(name, tmp_path, capsys) == DIGESTS[name]
