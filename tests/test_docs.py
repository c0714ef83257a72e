"""Documentation that the tests hold: README's Library example runs and
gives the values its comments state, and every exported name resolves."""

import re
from pathlib import Path

import shardcalc

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_gives_its_commented_values():
    code = _library_example()
    assert "# 32 shards" in code and "# rank 6, quotient dim 26" in code
    ns = {}
    exec(compile(code, str(README), "exec"), ns)
    assert len(ns["chambers"]) == 32
    ids = [X.id() for X in ns["chambers"]]
    assert ids == sorted(ids)
    rels = ns["rels"]
    assert rels.rank() == 6
    assert len(rels.shard_basis()) - rels.rank() == 26
    assert shardcalc.quotient_dim(ns["g"]) == 26


def test_every_exported_name_resolves():
    missing = [name for name in shardcalc.__all__
               if not hasattr(shardcalc, name)]
    assert missing == []
    assert len(set(shardcalc.__all__)) == len(shardcalc.__all__)
