"""Pinned bytes of the paper's artifacts: every table ``repro all`` prints.

One :func:`~repro.experiments.run_all` on a 30k-row context (same
logical 10 GB world as the default 120k rows) regenerates every
registered experiment; each table's aligned ``render()`` and its CSV
text are hashed.  An experiment with more than one table numbers them
the way ``run_experiment`` names its CSV files (``-1``, ``-2``).

The digests were recorded when the experiments still spelled the
Section 6 deployment out field by field and priced the cascade and
maintenance ablations by hand, so they hold the one-deployment design
to the bytes that code printed.  They do not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import EXPERIMENTS, ExperimentConfig, ExperimentContext, run_all


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(tables):
    digests = {}
    for i, table in enumerate(tables):
        suffix = "" if len(tables) == 1 else f"-{i + 1}"
        digests["render" + suffix] = _sha(table.render())
        digests["csv" + suffix] = _sha(table.to_csv_text())
    return digests


@pytest.fixture(scope="module")
def artifacts():
    context = ExperimentContext(ExperimentConfig(n_rows=30_000, seed=42))
    return {
        experiment_id: _digests(tables)
        for experiment_id, tables in run_all(context).items()
    }


GOLDEN = {
    "ablation-algorithms": {
        "csv": "865effb14d078d9297f0951c5b0b5c3e95e59a327fa086f5b5f9ade2367f2fa5",
        "render": "69816f355d313bdad7f426eed29390fc8d9253c3ac482880a32c9c8af616c1ad",
    },
    "ablation-billing": {
        "csv": "4f1b80babc369ca0acb52221c34383d35ebd3df22b126908ccae685c253658f9",
        "render": "f5f38cc5bc297c4c596bb20839a902e16efe044dc428d1920f73da500fa73f6a",
    },
    "ablation-cascade": {
        "csv": "5425257c203e3657d30bfd4823af2805c26b9a231f8e2d97f2cf8f4ec7c75402",
        "render": "b8e0dc8181a26f51e8699220431b939f0c8023626fc9a51ec9999d71f5908d07",
    },
    "ablation-drift": {
        "csv": "70d765417e4cc2511fbcfe700e339d053d63e1085a4a712bd76e648ba3dad7bd",
        "render": "ceca1f81e3a32a459e744de5f34df2f239a95c193e9f93d2cf1607a6831320e3",
    },
    "ablation-elastic": {
        "csv": "fe70e95c41111f88fcc4ee1b3964887366198645bd01c18e28d75e1a65b3ecf6",
        "render": "52a0c53e4b4a4e0d43c35ed5a36d1d92ed3a478760f31418c29348a34c27b1df",
    },
    "ablation-elasticity": {
        "csv": "108dcfe813380e93bd1450c1d01a75c1d15ebc2cd69c0b0ff286792cebbdec25",
        "render": "5c213abb471b12099a864bc01be543792ea72ceb2a1036731d886cdaae349b7c",
    },
    "ablation-hru": {
        "csv": "38fe65f9c6ea495579e2a52497bf22d122dac5fd904458df0bd618d3e4a62760",
        "render": "f30683c97bee15d1c6a7b7685a78b1956a89c7224727d5480d4d61d87d0ac091",
    },
    "ablation-maintenance": {
        "csv": "bd3db95fbe2c7f197f1e7e39d6e8a7d329e7c8e64c3c9b7a6c47bf708a976394",
        "render": "d60561fa5d1b4482e583adeec19f637eb6a196d34531396e5023a658ca15872a",
    },
    "ablation-tiers": {
        "csv": "76e9f799cf38f6e5b0126b707d5fc915c743505f5de459f2576a10f2ab289fd5",
        "render": "0c5cb0b09a3b5a8b2a552f3133a37f13a44eea9f222cad0be089d6cc63ff5b22",
    },
    "ablation-tight-budget": {
        "csv": "98e289a8d0a838bc27c52c8fb4147c99456269211455e309fc7edf1f9f4ab706",
        "render": "4f6f123798a94982ec76a2bd968a804b9e75086b001de8c0823383f6c31124f6",
    },
    "figure5a": {
        "csv": "f3739cbf82bd852def993e8e2f5ba3a18389f8ed12e51a0766e189339bf3a3ce",
        "render": "a74f89648e8b33704fcddc8caeaaaab06be645f2456c02d01d45a514cfef558e",
    },
    "figure5b": {
        "csv": "a8e200024e9e09b098466b45b68fc30ee9d3bcc9799d055ef61a654ffa39b5fa",
        "render": "4bc9597ab987ab85588b974cb84fd50f1bdffdab3d64a7a05bd2b753169e1c89",
    },
    "figure5c": {
        "csv": "3c80f01a2cee3fa0021c5de05c9f0375b80c31c01b798e01fe2c47820e2d13b1",
        "render": "20854100ccf59bcd7a6c053dab09072b93f8c97a23570f127b17552a0600478c",
    },
    "figure5d": {
        "csv": "ef2f454d137869dda3e8c1c69bbbaca904a863d3e9bb9b86f1e1377dde2af870",
        "render": "8d0f6d234b059decedf7016f15da006cd4cb1ff8b542aa5177e322a9bafb8f93",
    },
    "running-example": {
        "csv-1": "1393fa257419143e8fef924120ea159dc6f79e30f019eab70b0f7b31ff4132e1",
        "csv-2": "eb821ed61167d4caa8708d056049354f86cbd8336e7765d3075a9d70c2c6caa9",
        "render-1": "ae179d2264881e5ddd4d0271f58cdeb1af44249678ff0fe615f82e7f9e242d57",
        "render-2": "b45e7c203c9b88c7a1d06b0d7962406c0588077bfa7903a6bea1af23c1f98b0b",
    },
    "ssb": {
        "csv": "18002b57a899cbc9cb2b5dbb9df4aa6133f42b1eafa22e215878146608b344bc",
        "render": "848f4b67eb1a67268e7d52de3e98b17699694b6deb0973c806d90f004d15df09",
    },
    "table6": {
        "csv": "1fbc4cd84f011cb6383fbc9c0fd0a2a21f135f0206b453ab81f560bb28f1523f",
        "render": "31ac15c8809b63d3112f0478043750960aa38f341d78d58fb2a61bddc609d104",
    },
    "table7": {
        "csv": "fe11d80d1f280678e60c2e2c3de2c3770180f54893f211ec78e3fc10ad89e716",
        "render": "20bfef70b9546f479eabfe09e0221d59dc47d81535068b9a473fb5f0608e81c0",
    },
    "table8": {
        "csv": "f0f7bd2c333a53f691586aa7aad58af10c6f5d266a1ca2ae8a4de8675c98107d",
        "render": "4390d7a363b5af1150d75713e3bc6a50738d06e952582d44874912e68f56f377",
    },
}


def test_every_experiment_is_pinned():
    assert sorted(GOLDEN) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
def test_artifact_bytes_are_pinned(artifacts, experiment_id):
    assert artifacts[experiment_id] == GOLDEN[experiment_id]
