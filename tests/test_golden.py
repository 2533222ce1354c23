"""Golden outputs: sha256 of `predbands` output files for fixed configurations.

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

# Linear study with a 20% holdout per replication (R=50, grid of 11 points):
# the coefficients carry the test_mse column.
HOLDOUT = {
    "_bands.csv": "7b004329c9070fa71497576ce78133122d18398256b15b556ba70a40409c11c2",
    "_coefficients.csv": "2fdbf1a772d801d696e1f5a399ab93fdd0a427722d4a8fa2925d0228f34fe313",
    "_matrix.csv": "7afc33187e173fe403ac0c24c9fadadee997b6f19b9c4663d708b1bdca593cb0",
}
HOLDOUT_FLAGS = ["--test-fraction", "0.2", "--replications", "50", "--grid-points", "11"]

# Forest study with a 30% holdout (R=20 of 10 trees): the test_mse column
# pins forest predictions at each replication's own holdout points.
FOREST_HOLDOUT = {
    "_bands.csv": "ee0f2959f58a727401da8be1b9dbfcad8dcf8257eff730a409d3c02dcd36e6e6",
    "_coefficients.csv": "71e35661342dc5a2448f3cc69bd752ab26e02a08c84e59ede88aa50fc6616e15",
    "_matrix.csv": "acc881a2b0ee223020fa05be1c0fe14d4a9e7505fb5883341e871bcac71108bb",
}
FOREST_HOLDOUT_FLAGS = FOREST_FLAGS + ["--test-fraction", "0.3"]


def run_quietly(argv):
    with io.StringIO() as sink, redirect_stdout(sink):
        assert cli_main(argv) == 0


def study_hashes(tmp_path, name, flags):
    run_quietly(["study", "--emit-matrix", "--output", str(tmp_path / name)] + flags)
    return {suffix: hashlib.sha256((tmp_path / f"{name}{suffix}").read_bytes()).hexdigest()
            for suffix in SUFFIXES}


def test_linear_default_study(tmp_path):
    assert study_hashes(tmp_path, "linear", []) == LINEAR_DEFAULT


def test_linear_default_study_on_two_workers(tmp_path):
    assert study_hashes(tmp_path, "linear", ["--threads", "2"]) == LINEAR_DEFAULT


@pytest.mark.parametrize("threads", ["1", "2"])
def test_holdout_study(tmp_path, threads):
    got = study_hashes(tmp_path, "holdout", HOLDOUT_FLAGS + ["--threads", threads])
    assert got == HOLDOUT


@pytest.mark.parametrize("threads", ["1", "2"])
def test_small_forest_study(tmp_path, threads):
    got = study_hashes(tmp_path, "forest", FOREST_FLAGS + ["--threads", threads])
    assert got == FOREST_SMALL


@pytest.mark.parametrize("threads", ["1", "2"])
def test_forest_holdout_study(tmp_path, threads):
    got = study_hashes(tmp_path, "forest", FOREST_HOLDOUT_FLAGS + ["--threads", threads])
    assert got == FOREST_HOLDOUT


# Single-file outputs of the other commands. "{data}" is the dataset that
# `generate --seed 3` writes; "{study}" is the prefix of the holdout study above.
COMMANDS = {
    "generate": (
        ["generate", "--seed", "3"],
        "6e46a3750d4971646f34d3c2fd2508a5d6bde2ccf9e9697da783ccca63965f45"),
    "fit_mean_band": (
        ["fit", "{data}", "--band", "mean"],
        "ce2637775ddcefb7ef69e9e2c1b33f06660852644e7e82c37c57533ab9461768"),
    "fit_observation_band": (
        ["fit", "{data}", "--band", "observation", "--level", "0.9"],
        "a3144b57742dd3ddee5a2c3a309e19879eafba982c00450f4611beeca3cbdfb8"),
    "fit_forest": (
        ["fit", "{data}", "--model", "forest"],
        "bd72cd623211b8bb15d5ef7411c3ef21c4f5ac9e25f0a7029f15cecb9c9e4db4"),
    "report_at_x": (
        ["report", "{study}_matrix.csv", "--at-x", "175"],
        "cc50496bf4652415642a2aabf9c7aa5d592acfbe88145760b606951d8086e7a2"),
    "report_column": (
        ["report", "{study}_coefficients.csv", "--column", "test_mse"],
        "389686f444fd8799db1990c7270a7177b85f0629b240a874bf67e0bf837e108b"),
}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    data, study = str(root / "data.csv"), str(root / "holdout")
    run_quietly(["generate", "--seed", "3", "--output", data])
    run_quietly(["study", "--emit-matrix", "--output", study] + HOLDOUT_FLAGS)
    return {"data": data, "study": study}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output(tmp_path, command_inputs, name):
    template, want = COMMANDS[name]
    path = tmp_path / "out"
    run_quietly([arg.format(**command_inputs) for arg in template] + ["--output", str(path)])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
