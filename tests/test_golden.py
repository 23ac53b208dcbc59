"""Golden report envelopes: refactors must leave every `--out` file byte-identical.

Each case is a CLI argv over the inputs in tests/data/golden; its expected
envelope is tests/data/golden/<name>.json.  Envelopes carry only input
digests, never paths, so they do not depend on where the files live.
Running this file as a script rewrites the expected envelopes from the
current code; do that only at a commit whose reports are known good.
"""

from pathlib import Path

import pytest

from soficrank.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "transfer_z1_lower": ["transfer-run", "z1.ring", "x", "x", "--mode", "lower", "--torus-n", "12"],
    "transfer_z1_upper": ["transfer-run", "z1.ring", "s", "--mode", "upper", "--torus-n", "20"],
    "transfer_z1_both": ["transfer-run", "z1.ring", "u", "--mode", "both"],
    "transfer_z2_lower": ["transfer-run", "z2.ring", "x", "x", "--mode", "lower"],
    "transfer_z2_upper": ["transfer-run", "z2.ring", "s", "--mode", "upper"],
    "transfer_z2_both": ["transfer-run", "z2.ring", "w", "--mode", "both"],
    "transfer_s3_lower": ["transfer-run", "s3.ring", "x", "x", "--mode", "lower"],
    "transfer_s3_upper": ["transfer-run", "s3.ring", "sigma", "--mode", "upper"],
    "transfer_s3_both": ["transfer-run", "s3.ring", "x", "x", "--mode", "both"],
    "weiss_c12": ["weiss-select", "c12.graph", "-g", "Z^1", "--r0", "1"],
    "weiss_c12_even": ["weiss-select", "c12.graph", "-g", "Z^1", "--r0", "1", "--good", "0,2,4,6,8,10"],
}


def _argv(name: str, out: Path) -> list[str]:
    argv = list(CASES[name])
    argv[1] = str(GOLDEN / argv[1])
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(_argv(name, out)) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        assert main(_argv(case, GOLDEN / f"{case}.json")) == 0
