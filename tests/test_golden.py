"""Golden-file determinism: rerunning a command must reproduce the
checked-in bytes exactly."""

import os

import pytest

from shardcalc.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    (["enumerate", "--n", "2"], "enumerate_n2.jsonl"),
    (["enumerate", "--n", "3"], "enumerate_n3.jsonl"),
    (["enumerate", "--n", "4"], "enumerate_n4.jsonl"),
    (["enumerate", "--partition", "(12|34)"], "enumerate_12-34.jsonl"),
    (["stein-rank", "--n", "4"], "steinrank_n4.json"),
    (["oracle", "--n", "4"], "oracle_n4.json"),
    (["verify", "--n", "2", "--suite", "lie", "--format", "text"],
     "verify_n2_lie.txt"),
    (["verify", "--n", "4"], "verify_n4.json"),
    (["verify", "--n", "5"], "verify_n5.json"),
    (["verify", "--n", "5", "--suite", "lie"], "verify_n5_lie.json"),
    (["render", "--n", "3"], "render_n3.svg"),
    (["render", "--n", "3", "--forest", "[[1,2],3]"], "render_n3_tree.svg"),
    (["render", "--n", "4"], "render_n4.svg"),
    (["render", "--n", "4", "--forest", "[[1,2],[3,4]]@012"],
     "render_n4_layering012.svg"),
    (["render", "--n", "4", "--forest", "[[1,2],[3,4]]@021"],
     "render_n4_layering021.svg"),
    # fractional coefficients: opacity below one half, the cap above one,
    # and signed fractions under the n=3 chamber names
    (["render", "--n", "3", "--vector",
      os.path.join(GOLDEN, "render_n3_fractional.json")],
     "render_n3_fractional.svg"),
    (["render", "--n", "4", "--vector",
      os.path.join(GOLDEN, "render_n4_fractional.json")],
     "render_n4_fractional.svg"),
]


def _golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("args,name", CASES, ids=[c[1] for c in CASES])
def test_golden_bytes(args, name, tmp_path):
    out = tmp_path / name
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == _golden(name), (
        "output of %r drifted from tests/golden/%s" % (args, name))


def test_two_layerings_share_walls_but_not_shading():
    a = _golden("render_n4_layering012.svg").decode()
    b = _golden("render_n4_layering021.svg").decode()
    assert a != b
    walls = lambda s: s[s.index('<g id="walls">'):]
    assert walls(a) == walls(b)

