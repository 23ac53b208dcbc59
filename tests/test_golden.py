"""Golden report envelopes: refactors must leave every `--out` file byte-identical.

Each case is a CLI argv over the inputs in tests/data/golden; its expected
envelope is tests/data/golden/<name>.json.  Envelopes carry only input
digests, never paths, so they do not depend on where the files live.
Running this file as a script rewrites the expected envelopes from the
current code; do that only at a commit whose reports are known good.
"""

import builtins
import io
from pathlib import Path

import pytest

from soficrank import groups
from soficrank.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "transfer_z1_lower": (0, ["transfer-run", "z1.ring", "x", "x", "--mode", "lower", "--torus-n", "12"]),
    "transfer_z1_upper": (0, ["transfer-run", "z1.ring", "s", "--mode", "upper", "--torus-n", "20"]),
    "transfer_z1_both": (0, ["transfer-run", "z1.ring", "u", "--mode", "both"]),
    "transfer_z1_both_neither": (0, ["transfer-run", "z1.ring", "u", "u", "--mode", "both"]),
    "transfer_z2_lower": (0, ["transfer-run", "z2.ring", "x", "x", "--mode", "lower"]),
    "transfer_z2_upper": (0, ["transfer-run", "z2.ring", "s", "--mode", "upper"]),
    "transfer_z2_both": (0, ["transfer-run", "z2.ring", "w", "--mode", "both"]),
    "transfer_s3_lower": (0, ["transfer-run", "s3.ring", "x", "x", "--mode", "lower"]),
    "transfer_s3_upper": (0, ["transfer-run", "s3.ring", "sigma", "--mode", "upper"]),
    "transfer_s3_both": (0, ["transfer-run", "s3.ring", "x", "x", "--mode", "both"]),
    "weiss_c12": (0, ["weiss-select", "c12.graph", "-g", "Z^1", "--r0", "1"]),
    "weiss_c12_even": (0, ["weiss-select", "c12.graph", "-g", "Z^1", "--r0", "1", "--good", "0,2,4,6,8,10"]),
    "cayley_z2": (0, ["cayley-ball", "-g", "Z^2", "-r", "2"]),
    "sofic_c12_pass": (0, ["sofic-verify", "c12.graph", "-g", "Z^1", "-r", "2", "-e", "1/10"]),
    "sofic_c12_mismatch": (1, ["sofic-verify", "c12.graph", "-g", "Z^1", "-r", "6"]),
    "df_z1": (0, ["df-check", "z1.ring", "x", "x"]),
}


def _argv(name: str, out: Path) -> list[str]:
    """The case's argv with its input file (the second word, unless an option) under GOLDEN."""
    argv = list(CASES[name][1])
    if not argv[1].startswith("-"):
        argv[1] = str(GOLDEN / argv[1])
    return argv + ["--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert main(_argv(name, out)) == CASES[name][0]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_builds_at_most_one_ball(name, tmp_path, monkeypatch):
    """Every ball a run uses is a prefix of the first one it builds."""
    built = []
    build = groups._build_ball

    def counting(group, r, max_elements):
        built.append(r)
        return build(group, r, max_elements)

    monkeypatch.setattr(groups, "_build_ball", counting)
    assert main(_argv(name, tmp_path / f"{name}.json")) == CASES[name][0]
    assert len(built) <= 1, built


@pytest.mark.parametrize("name", sorted(name for name, (_, argv) in CASES.items() if not argv[1].startswith("-")))
def test_each_input_file_is_read_once(name, tmp_path, monkeypatch):
    """The command parses and digests one read of its input file."""
    argv = _argv(name, tmp_path / f"{name}.json")
    opened = []
    real = io.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened.append(Path(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    assert main(argv) == CASES[name][0]
    assert opened.count(Path(argv[1])) == 1


if __name__ == "__main__":
    for case in sorted(CASES):
        assert main(_argv(case, GOLDEN / f"{case}.json")) == CASES[case][0]
