"""The data path's import boundary: booting a node loads numpy as its only
third-party package. scipy (Algorithm 1's estimator) and networkx (the
matching partitioner and the Theorem 2 reduction) load only in the modules
that run them, so a fresh interpreter that imports every product package
holds neither."""

import os
import subprocess
import sys
from pathlib import Path

import repro

PRODUCT_PACKAGES = (
    "repro.system",
    "repro.rpc",
    "repro.kvstore",
    "repro.content",
    "repro.erasure",
    "repro.dedup",
    "repro.chunking",
    "repro.loadgen",
    "repro.chaos",
    "repro.secure",
    "repro.core",
    "repro.core.partitioning",
)
HEAVY = ("scipy", "networkx")


def loaded_after(*modules: str) -> list[str]:
    """Which of ``HEAVY`` a fresh interpreter holds after importing ``modules``."""
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in modules)
        + f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return [name for name in done.stdout.strip().split(",") if name]


def test_the_product_packages_load_neither_scipy_nor_networkx():
    assert loaded_after(*PRODUCT_PACKAGES) == []


def test_the_modules_that_need_them_still_load_them():
    # The probe above would pass vacuously if it could not see an import.
    assert loaded_after("repro.core.estimation") == ["scipy"]
    assert loaded_after("repro.core.nphard") == ["networkx"]
