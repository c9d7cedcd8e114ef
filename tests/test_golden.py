"""Byte-for-byte pins of CLI reports.

Each case runs one command in both output formats and compares the sha256
of stdout with a recorded digest.  The sweeps pin every configuration's
verdict and witness, the pattern tables every pattern's, so a refactor of
the classifiers that changes any verdict, witness, weight or ordering
fails here.  A deliberate output change must re-record the digests and say
why.
"""

import hashlib
from pathlib import Path

import pytest

from torstab.cli import main

# Seeded tables of 240-992 patterns with stable and strictly semistable
# rows, large enough that `classify_patterns` skips solves a smaller support
# already decided.  Each file's weights are random.Random(seed).randint(-3, 3),
# drawn for the base variables x0, x1, ... first, then the fiber variables
# u0, u1, ...  The JSON report echoes the command line, so the paths are
# relative to the repository root, where the test runs them.
ROOT = Path(__file__).parent.parent

SINGLE_CONFIG = (
    "conic", "--n", "3", "--stratum", "1,2,3,4", "--lengths", "0,2,0,1,0",
    "--marked", "1:1,1:-1,3:2", "--lambda", "1,-1,2", "--components",
)

# (argv without --format, json digest, text digest)
GOLDEN = [
    (
        ("conic", "--n", "1", "--sweep"),
        "1aec620ca9648e214d636b6627889b6534d735e7949774409753db08dee6d37d",
        "f1e6e75969c8acfb776f2e2a97a296892f32e8ff571a482e1a2163645d38ba52",
    ),
    (
        ("conic", "--n", "2", "--sweep"),
        "3e386a91bb9f7077a94f19964cc012ef0339a4722d4a426cefef733dd44528b6",
        "c5ed03aebf69aee2b8ca91e3bf324ea1c000d3b5de8fa378ae181d88de62c783",
    ),
    (
        ("conic", "--n", "3", "--sweep"),
        "7ccfad7bb5081708d7085acd9bf9003f79a2952fb0563b31a5a18b3e7712648d",
        "f10b57f808f67a45b1cd166566b6d6a2bf74ee51f3c2e982fb158a771ce61603",
    ),
    (
        ("conic", "--n", "3", "--sweep", "--twists", "3,2"),
        "62f355a51b3e5e3dd16bb436b936c560ff23187309cb9d2573aa3edd80162633",
        "386d940d8c69336f99bbf2c1a5ab36cdd467af921208dfaee7ffbd4f0c95d97c",
    ),
    (
        ("conic", "--n", "3", "--sweep", "--sign", "opposite"),
        "e634dcec8b6ac488748fa70b961cebbeb923695f355e9545d11dfed951a68818",
        "c06eed8309e83e40f021aa13ba02cd8afd1d460eed4faad050b164d24aeb2078",
    ),
    (
        ("patterns", "--problem", "builtin:conic-bundle"),
        "9b94f92b809ffbde1eb5f6d58708af49eaae86016430e232627dc32064f61e47",
        "e5c37668b680775e54dfbc37992dfd5e774c78b6656c48789590207b15e15765",
    ),
    (
        ("patterns", "--problem", "builtin:king-theta1"),
        "daeef0ecfb56052aeab36d5117d6b76c30cd253571097e8ca4c0e7ca2c2b3269",
        "7db24602f2fdacb3817df4a53b8bff86fd9b4a78db37f358ebbc5dc99d63a1b6",
    ),
    (
        ("patterns", "--problem", "builtin:degenerating-conic"),
        "af4790855c577211efebefb6142c70081245afe3c547d8b9b146bd00adad7057",
        "5dd84a1f7c72158fbe279474be46f1c47672b03bb1b89ee43e61bd0a3dcb9b2d",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank3_5x5_seed1.problem"),
        "347257b22c1b8ba562b6a3e09bd9813ea19d8f81ca9109bc90692fa79da6faf2",
        "e3b237c1cc4e8b56a78012ca74ef4310f91cec02aa5b58a2819cb4d9a17428cd",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed1.problem"),
        "9dc1d6afd6cf00a1ca4377b1681b9e8f77c9a066feb293b15228ae82a31c1322",
        "2333c8f15c3fcec70d2b8e071a731d8e2898397e6cca2d1d54307b7b690cf1e1",
    ),
    (
        ("patterns", "--problem", "tests/tables/rank4_4x4_seed2.problem"),
        "6f7a893790a7ae156ee0817a36d1c32a0c6a51efec9ba84cd2114dad1403af81",
        "669adb5e175fd7cb139e4082cced59e03e22d06f3cf968a6adc1ea02deac49c4",
    ),
    (
        SINGLE_CONFIG,
        "78bfa485ed7e5d29443c52ff4585cfc71322de02234440c932d81bd372e5c107",
        "209616742d29349f2e0dddf6ee0c1b6caac5d4495c8fefcfb001100ea5cdbb40",
    ),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    [
        pytest.param(argv, fmt, digest, id=" ".join(argv + (fmt,)))
        for argv, json_digest, text_digest in GOLDEN
        for fmt, digest in (("json", json_digest), ("text", text_digest))
    ],
)
def test_report_digest(capsys, monkeypatch, argv, fmt, digest):
    monkeypatch.chdir(ROOT)
    code = main(list(argv) + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
