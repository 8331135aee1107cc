"""Golden reports: the sha256 of the CLI stdout for a few fixed commands.

The first five digests were taken before the E1 cell dimensions moved to
their closed form and the integer polynomial helpers were merged, the rest
before fit_rational became an integer search, the next three before
chromatic polynomials moved to the colour-class recursion, and the last three
before `kl` and `eqkl` rendered their values with str; any edit to a kernel
that moves one byte of these reports fails here.  Re-pin a digest only for
a deliberate, documented change of the report itself.
"""

import hashlib
import json
import os

import pytest

from braidkl.cli import main

# a triangle with a pendant vertex: 0-1-2 closed by 0-2, then 2-3
GRAPH_G4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]]}
# the 3x3 grid, vertex 3r + c in row r and column c
GRAPH_GRID3X3 = {
    "n": 9,
    "edges": [[3 * r + c, 3 * r + c + 1] for r in range(3) for c in range(2)]
    + [[3 * r + c, 3 * r + c + 3] for r in range(2) for c in range(3)],
}
GRAPH_P4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
GRAPH_FILES = {"g4.json": GRAPH_G4, "grid3x3.json": GRAPH_GRID3X3, "p4.json": GRAPH_P4}

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
    # pinned before fit_rational moved to its integer depth-first search
    (
        ["genfun", "--i", "3", "--max-n", "34", "--fit", "--asymptotics"],
        "42e918eee273f0b4ad4cf04b46593931769141100d6b1323a6afce8e5922ed6a",
    ),
    (
        ["genfun", "--i", "1", "--max-n", "20", "--fit", "--asymptotics"],
        "af932a7b220e02aa5a3997c94766c49caf0b3b93a6e00f026b0e181bdf222870",
    ),
    (
        ["verify", "--suite", "paper-i1"],
        "cd8b9ae7176822762e8f66fa3a922f64a3bb748f458586262be210a37447bde2",
    ),
    (
        ["verify", "--suite", "paper-i2"],
        "696b1d2c59d39efd669aa4c14ae02aaf86a50ad279f8e64a16aa78b61b80c3b5",
    ),
    (
        ["verify", "--suite", "properties"],
        "0a86b917e8012538f2a3f23f803627109093b9b9df10d60bdfb57247079bc44a",
    ),
    # pinned before the chromatic polynomials moved to colour classes
    (
        ["kl", "--graph", "grid3x3.json"],
        "7f5d0bdc4b67bc1ac3d56ab21b2c811c1baae554be4cf0a79514d91c3b4f888a",
    ),
    (
        ["kl", "--graph", "p4.json", "--cone", "6"],
        "bedce5317a27ecff78e3abbedf986632288bd19100f89014c6c06698fb6dc4a1",
    ),
    (
        ["verify", "--suite", "relative"],
        "b89184b6ce4493961d1cb2fc5a2f995f84c838e475f3e54d8fb42d3dd932470b",
    ),
    # pinned before `kl` and `eqkl` rendered their integers with str
    (
        ["kl", "--n", "1"],
        "424f199871002b0e9fb4b89e5698912ce60edeace499bbe9f7982fe1628d1788",
    ),
    (
        ["kl", "--n", "40"],
        "dfc79465feff5da041900508635949c5b0721fb9b40bba22e0e71a9af4b4f3d7",
    ),
    (
        ["eqkl", "--n", "7"],
        "f7f368c5a533ed891fc6b33a793675d87c3b54c4a92f7af7b2bd5462efca14b2",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(argv, digest, tmp_path, monkeypatch, capsys):
    # the graph path is echoed in the report, so it is given relative to a
    # fixed working directory
    monkeypatch.chdir(tmp_path)
    for name, graph in GRAPH_FILES.items():
        (tmp_path / name).write_text(json.dumps(graph))
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_report_ignores_a_wrong_cached_row(tmp_path, monkeypatch, capsys, new_process):
    """K5-e and cone-path3 of the relative suite are cone(2K1, 3).  A
    plausible but wrong row for it, in the file and under the key that
    KL_CACHE_DIR used to hold, changes no byte of the report, and the file
    is left as it was."""
    monkeypatch.setenv("KL_CACHE_DIR", str(tmp_path))
    key = "graph:4b050202"
    cache_file = tmp_path / "kltable.json"
    cache_file.write_text(json.dumps({key: ["1", "6"]}))  # the row is 1 + 5t
    before = cache_file.read_bytes()
    argv = ["verify", "--suite", "relative"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    digest = dict((tuple(a), d) for a, d in GOLDEN)[tuple(argv)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert cache_file.read_bytes() == before
    assert os.listdir(tmp_path) == ["kltable.json"]
