"""Pinned checkpoint hashes: seeded training is bit-exact across refactors.

Each case trains a tiny fixed configuration and compares the sha256 of the
serialized network with a hash recorded before the numerics were rewritten.
A change that keeps every hash has kept every floating-point operation of
training, initialisation and serialization.

The hashes were recorded with numpy 2.4.6, scipy 1.17.1 and numpy's
bundled OpenBLAS on x86-64 (Python 3.11). Another BLAS build or numpy
release may round matmuls differently and then needs new pins.
"""

import hashlib

import pytest

from cflow import datasets as ds
from conftest import energy as en
from cflow import flow
from cflow.diffcore import mlp_to_bytes

HIDDEN = (64, 64, 64)


def _sha(net) -> str:
    return hashlib.sha256(mlp_to_bytes(net)).hexdigest()


def _train(mode, q0, target, parent=None, init=None, **kw):
    cfg = flow.TrainConfig(**{"steps": 40, "batch": 128, "lr": 3e-3, "hidden": HIDDEN, **kw})
    return flow.train(cfg, q0, target, mode=mode, seed=3, parent=parent, init=init)


def _learn(**kw):
    data = ds.generate("circles", 512, seed=1)
    return _train("learn", ds.GaussianSampler(2), data, lr_decay="cosine", **kw)


def _unlearn(energy):
    parent = _learn()
    q0 = flow.ModelSampler(parent, seed=4, n_steps=4)
    return _train("unlearn-erfm", q0, energy, parent=parent, sigma=0.05)


def _unlearn_pool(benchmark, energy, parent=None):
    """unlearn-erfm drawing both endpoints from a data pool (EmpiricalSampler)."""
    q0 = ds.EmpiricalSampler(ds.generate(benchmark, 512, seed=10).points, seed=11)
    return _train("unlearn-erfm", q0, energy, parent=parent, init=parent, sigma=0.05)


def _refit():
    parent = _learn()
    q0 = flow.ModelSampler(parent, seed=5, n_steps=4)
    retain = ds.generate("circles", 512, seed=2).subset(ds.RETAIN)
    return _train("refit-ot", q0, retain, parent=parent)


def _finetune():
    parent = _learn()
    data = ds.generate("moons", 512, seed=6)
    return _train("finetune", ds.GaussianSampler(7), data, init=parent)


def _classifier():
    data = ds.generate("circles", 400, seed=8)
    cfg = en.ClassifierConfig(steps=60, batch=32, hidden=HIDDEN, seed=9)
    return en.train_classifier(data, cfg)


CASES = {
    "learn": lambda: _learn().field,
    "unlearn-erfm-region": lambda: _unlearn(en.RegionEnergy("circles", 5.0)).field,
    "unlearn-erfm-constant": lambda: _unlearn(en.ConstantEnergy(0.3, lam=2.0)).field,
    "unlearn-erfm-pool-classifier": lambda: _unlearn_pool(
        "circles", en.ClassifierEnergy(_classifier(), 5.0), parent=_learn()
    ).field,
    "unlearn-erfm-pool-region": lambda: _unlearn_pool(
        "checkerboard", en.RegionEnergy("checkerboard", 5.0)
    ).field,
    "refit-ot": lambda: _refit().field,
    "finetune": lambda: _finetune().field,
    "learn-sgd": lambda: _learn(optimizer="sgd", lr=0.05).field,
    "classifier": lambda: _classifier().net,
}

PINNED = {
    "classifier": "85ad6744511d970e5f2d9553d2e5ac4c9029a4c31ba443a1b88cb89d85c71523",
    "finetune": "52a83b89c7a2fe5421fc37967dd8e0c8dd30feb82749acfe649ac39465d7cd62",
    "learn": "1b79d8e52b16a8f70215c84b3a0ce6aaedf40806e2a127c40af670dccf12f9f2",
    "learn-sgd": "bca89c0c429e47f0af9b7bcfdf45be5f8c67285f891756b63b9fb47595b4118d",
    "refit-ot": "a2514fcc84c603774a7f0cc65911441d68cca3235a5eb21912ff4ec184fdeb0c",
    "unlearn-erfm-constant": "5200539835c0d9405d89ad1a0fe17c6e7626842ff15277942d46041e326f9bc9",
    "unlearn-erfm-pool-classifier": "4cbeb2061f25f8fd84fde5bac40b01306930171ddaef26b8ff08b7b48b154087",
    "unlearn-erfm-pool-region": "63322597e05627566ea660d5696bd458bf4d02ee40dd1377f7944c7f73013635",
    "unlearn-erfm-region": "fb325a00dfc19f5445e59480a2cfa3215e939ab1a71de9f600cfb734d4f9dbdc",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_hash_is_pinned(case):
    assert _sha(CASES[case]()) == PINNED[case]
