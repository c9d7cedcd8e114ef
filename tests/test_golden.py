"""Byte-for-byte pins of CLI reports.

Each case runs one command in both output formats and compares the sha256
of stdout with a recorded digest.  The commands on builtin problems are the
package's own golden table (`torstab.golden`, which `torstab selftest`
replays); this module adds seeded problem files that do not ship with the
package.  The sweeps pin every configuration's verdict and witness, the
pattern tables every pattern's, so a refactor of the classifiers that
changes any verdict, witness, weight or ordering fails here.  The seeded
tables are also pinned by verdict alone, witnesses removed, so a change
that only picks other valid witnesses shows as such.  A deliberate output
change must re-record the digests and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from torstab.cli import _run, main
from torstab.golden import GOLDEN_REPORTS
from torstab.report import to_json, to_text

# Seeded tables of 240-992 patterns with stable and strictly semistable
# rows, large enough that `classify_patterns` skips solves a smaller support
# already decided and reuses witnesses found for smaller supports.  Each file's weights are random.Random(seed).randint(-3, 3),
# drawn for the base variables x0, x1, ... first, then the fiber variables
# u0, u1, ...  Paths are relative to the repository root.
ROOT = Path(__file__).parent.parent

TABLES = [
    (
        ("patterns", "--problem", "tests/tables/rank3_5x5_seed1.problem"),
        "8d27eb2e4777771aa7451fb7cb5a140e6bc243267b8b70089291ab5c1771f4d2",
        "f51c982c898bb9a45aec8135e65a7172a8a9b37d67ceaba951167f7f598b3907",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed1.problem"),
        "66337ca4bde445c362a39239e4e01fbd2378ecafe514ac7676b537a807a0948d",
        "1eead767421b2ab49bbc66adcbfcb00424e728486c9f7b70717a58afc85842f8",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed2.problem"),
        "a97fd26c6b203acf46140add385da0b8873ab697bf40f2c72e2e184e92e8ec1a",
        "c79d18125dc19ac0351d63e5a3745aed01274e921437c5e6cdc6cdfa48872d9e",
    ),
    # The rank-4 8+8 table of 65 280 patterns, the worst case that CI smokes:
    # every row's name lists, verdict and witness, in both views.
    (
        ("patterns", "--problem", "tests/tables/rank4_8x8_seed1.problem"),
        "3609191900f213122e42b1dadd02ea44760152574cebd60e7b5969b0d7d97231",
        "ab13a8a40ab4098caf9bca51061cbd1b818d3d91ae83711402f7c32c0959831e",
    ),
    # The rank-2 ring "P40" (weights in ROADMAP.md): 24 generators up to
    # degree 10, whose relation scan stops at syzygy degree 3.  Its relations
    # were recorded while the scan still ran to the bound.
    (
        (
            "relations", "--problem", "tests/tables/p40.problem",
            "--max-degree", "10", "--syzygy-degree", "4",
        ),
        "ed3ac35067894d349a76b413b9b58bee1e1b4aafda9209c4a368963f608f041a",
        "80262fa8860d3b5a14d5ef86d72ccd275ce5322f479f8dfca75dc765426b283f",
    ),
]


# The same seeded tables pinned by verdict alone: the sha256 of the JSON
# report with every `witness` and `witness_mu` key removed, re-encoded the
# way `report.to_json` encodes.  `classify_patterns` may give a row any
# checked witness, so a change of witness moves the digests above but must
# leave these.
VERDICT_DIGESTS = {
    "tests/tables/rank3_5x5_seed1.problem": (
        "1425a652cf870a1e9af92422e5210957b7a1d111b5d1d085e5580f99bfd4db4c"
    ),
    "tests/tables/rank4_4x4_seed1.problem": (
        "d188456f99d30c5e88dbf99f2457867b74e55570a1037299e929ad54b36c305d"
    ),
    "tests/tables/rank4_4x4_seed2.problem": (
        "6e05c14089a11405ab73a6623b4a27cc87b8f6587b6c04ea0e63e65f60ed0b83"
    ),
}


def _without_witnesses(value):
    if isinstance(value, dict):
        return {
            k: _without_witnesses(v)
            for k, v in value.items()
            if k not in ("witness", "witness_mu")
        }
    if isinstance(value, list):
        return [_without_witnesses(v) for v in value]
    return value


@pytest.mark.parametrize("path, digest", sorted(VERDICT_DIGESTS.items()))
def test_table_verdict_digest(capsys, path, digest):
    assert main(["patterns", "--problem", str(ROOT / path), "--format", "json"]) == 0
    report = _without_witnesses(json.loads(capsys.readouterr().out))
    text = json.dumps(report, sort_keys=True, separators=(",", ": "), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


# The text view is a function of what the JSON carries: rendered from the
# parsed JSON report, every report prints the same text as in process.


def assert_text_renders_from_json(report) -> None:
    text, parsed = to_text(report), to_text(json.loads(to_json(report)))
    same = text == parsed  # no pytest diff of two texts of megabytes
    assert same, next(
        (pair for pair in zip(text.splitlines(), parsed.splitlines()) if pair[0] != pair[1]),
        "line counts differ",
    )


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=" ".join(argv)) for argv, _, _ in list(GOLDEN_REPORTS) + TABLES],
)
def test_text_renders_from_the_json_alone(argv):
    _, report = _run([str(ROOT / a) if a.startswith("tests/") else a for a in argv])
    assert_text_renders_from_json(report)


@pytest.mark.parametrize("workload", ["pattern-table", "invariant-ring", "chain-sweep"])
def test_benchmark_tasks_render_their_text_from_their_json(monkeypatch, tmp_path, workload):
    # One round of the benchmark's seed-1 pool, problem files included.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    tasks = workloads.build_pool(workloads.WORKLOADS[workload], 1, tmp_path, rounds=1)
    assert tasks
    for task in tasks:
        _, report = _run(task.argv)
        assert_text_renders_from_json(report)
