"""Byte-for-byte pins of CLI reports.

Each case runs one command in both output formats and compares the sha256
of stdout with a recorded digest.  The commands on builtin problems are the
package's own golden table (`torstab.golden`, which `torstab selftest`
replays); this module adds seeded problem files that do not ship with the
package.  The sweeps pin every configuration's verdict and witness, the
pattern tables every pattern's, so a refactor of the classifiers that
changes any verdict, witness, weight or ordering fails here.  A deliberate
output change must re-record the digests and say why.
"""

import hashlib
from pathlib import Path

import pytest

from torstab.cli import main
from torstab.golden import GOLDEN_REPORTS

# Seeded tables of 240-992 patterns with stable and strictly semistable
# rows, large enough that `classify_patterns` skips solves a smaller support
# already decided.  Each file's weights are random.Random(seed).randint(-3, 3),
# drawn for the base variables x0, x1, ... first, then the fiber variables
# u0, u1, ...  Paths are relative to the repository root.
ROOT = Path(__file__).parent.parent

TABLES = [
    (
        ("patterns", "--problem", "tests/tables/rank3_5x5_seed1.problem"),
        "80c0c8bdc88524467a57b2ce01d158a4036302f8650a719dda5aa09a39ec7964",
        "e3b237c1cc4e8b56a78012ca74ef4310f91cec02aa5b58a2819cb4d9a17428cd",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed1.problem"),
        "dc0c8c206824d66208f91f7c98ed7f532df581bdf2e1678a011612a4018c168d",
        "2333c8f15c3fcec70d2b8e071a731d8e2898397e6cca2d1d54307b7b690cf1e1",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed2.problem"),
        "a2b38f9b5ea74cd52d371d0069c14a3c09e639e630f0ef0b3cc31ec073c65790",
        "669adb5e175fd7cb139e4082cced59e03e22d06f3cf968a6adc1ea02deac49c4",
    ),
    # The rank-2 ring "P40" (weights in ROADMAP.md): 24 generators up to
    # degree 10, whose relation scan stops at syzygy degree 3.  Its relations
    # were recorded while the scan still ran to the bound.
    (
        (
            "relations", "--problem", "tests/tables/p40.problem",
            "--max-degree", "10", "--syzygy-degree", "4",
        ),
        "819ec1a0099f9de826da7dc17ff2c32101d29ac7d123c03242517ebab7957702",
        "80262fa8860d3b5a14d5ef86d72ccd275ce5322f479f8dfca75dc765426b283f",
    ),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [
        pytest.param(argv, fmt, digest, id=" ".join(argv + (fmt,)))
        for argv, json_digest, text_digest in list(GOLDEN_REPORTS) + TABLES
        for fmt, digest in (("json", json_digest), ("text", text_digest))
    ],
)
def test_report_digest(capsys, argv, fmt, digest):
    argv = [str(ROOT / a) if a.startswith("tests/") else a for a in argv]
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
