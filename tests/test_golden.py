"""Golden reports: the sha256 of the CLI stdout for a few fixed commands.

The digests were taken before the E1 cell dimensions moved to their closed
form and the integer polynomial helpers were merged; any edit to a kernel
that moves one byte of these reports fails here.  Re-pin a digest only for
a deliberate, documented change of the report itself.
"""

import hashlib
import json

import pytest

from braidkl.cli import main

# a triangle with a pendant vertex: 0-1-2 closed by 0-2, then 2-3
GRAPH_G4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]}

GOLDEN = [
    (
        ["e1", "--i", "3", "--n", "30"],
        "26f69c9a97d0664596fce65790e5acf6837c105703abb5135276cade31bd5c7e",
    ),
    (
        ["e1", "--i", "4", "--n", "40"],
        "375d14089df252f79e51f34e5c4a099eaef0576627ccee9aea652775116509f1",
    ),
    (
        ["e1", "--i", "2", "--n", "4", "--graph", "g4.json"],
        "1dffc1de644af9f387971cb5b330d394c5ae835641dcce7b13b9dfd4fccb87e3",
    ),
    (
        ["genfun", "--i", "2", "--max-n", "30", "--fit", "--asymptotics"],
        "d13078b9ef8260fc128f522611e6ccafcf13ac0c2d3a339b8bbe8585b9a8c2ed",
    ),
    (
        ["verify", "--suite", "euler"],
        "788051532cafd2dbbe0b6d725224f02c280476e0ccfe41ea90b164ba6b316510",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # the graph path is echoed in the report, so it is given relative to a
    # fixed working directory; no disk cache may take part
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KL_CACHE_DIR", raising=False)
    (tmp_path / "g4.json").write_text(json.dumps(GRAPH_G4))
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
