"""Golden outputs: sha256 of `predbands study` files for fixed configurations.

A change that is meant to move output bytes updates the hash here in a
commit of its own, and CHANGES.md records the largest numeric difference
between the old and new outputs.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from predbands.cli import main as cli_main

SUFFIXES = ("_bands.csv", "_coefficients.csv", "_matrix.csv")

# Default linear study (R=1000, grid of 101 points, seed 0).
LINEAR_DEFAULT = {
    "_bands.csv": "578f48ec5f35055d8ed5f071583d6ae1d9159403f5fc4936124d6c075a18382d",
    "_coefficients.csv": "c13c987fcca9e3556a22248879063c34579b02f5d8818190540a46c63927dc77",
    "_matrix.csv": "a33b1a85f27e1e15acda040429fe561849f9245aac8daeb64d3197f7590c2058",
}

# Forest study, R=20 of 10 trees, from the level-wise grower.
FOREST_SMALL = {
    "_bands.csv": "82affc2f739c9400b95aaf6623a6e1c7b90ee8da32ef80ac952a25a5a394af35",
    "_coefficients.csv": "14c3a99deace705af040182bff5dfe45d5cd785b5a99bb6610a038ca9135406a",
    "_matrix.csv": "50b3f4e5e29b715c961197858145dc73da2ba585f9c1cb6fddfc331dac5de170",
}
FOREST_FLAGS = ["--model", "forest", "--replications", "20", "--trees", "10"]


def study_hashes(tmp_path, name, flags):
    prefix = str(tmp_path / name)
    with io.StringIO() as sink, redirect_stdout(sink):
        assert cli_main(["study", "--emit-matrix", "--output", prefix] + flags) == 0
    return {suffix: hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
            for suffix in SUFFIXES}


def test_linear_default_study(tmp_path):
    assert study_hashes(tmp_path, "linear", []) == LINEAR_DEFAULT


@pytest.mark.parametrize("threads", ["1", "2"])
def test_small_forest_study(tmp_path, threads):
    got = study_hashes(tmp_path, "forest", FOREST_FLAGS + ["--threads", threads])
    assert got == FOREST_SMALL
