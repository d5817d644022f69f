"""Dataclasses that hold numpy arrays compare and hash by identity.

A generated ``__eq__`` would compare the array fields element-wise and raise
on their ambiguous truth value, and the generated ``__hash__`` of a frozen
class would raise on the unhashable arrays.
"""

import copy

import numpy as np
import pytest

from minsyn import nn
from minsyn.checkpoint import parse_checkpoint, dump_checkpoint
from minsyn.decoder import binary_batch_stats, gaussian_batch_stats
from minsyn.discrete import DiscreteJoint, ci_decoder_distribution
from minsyn.gaussian import GaussianSystem, gaussian_ci_posterior
from minsyn.idx import images_tensor
from minsyn.nn import DenseLayer, PcaModel, build_autoencoder
from minsyn.words import WordDataset


def _x_z():
    rng = np.random.default_rng(0)
    return rng.random((6, 4)), rng.random((6, 2))


MAKERS = {
    "DiscreteJoint": DiscreteJoint.xor,
    "CiDecoderTable": lambda: ci_decoder_distribution(DiscreteJoint.xor()),
    "GaussianSystem": lambda: GaussianSystem.pair(0.5, 0.75, -0.1),
    "CiPosterior": lambda: gaussian_ci_posterior([0.5, 0.75]),
    "GaussianStats": lambda: gaussian_batch_stats(*_x_z()),
    "BinaryStats": lambda: binary_batch_stats(*_x_z()),
    "DecoderParams": lambda: gaussian_batch_stats(*_x_z()).readout,
    "IdxTensor": lambda: images_tensor(np.zeros((2, 28 * 28))),
    "WordDataset": lambda: WordDataset(np.zeros((1, 3)), np.zeros((1, 3)), ("a",), (), ("a",)),
    "Checkpoint": lambda: parse_checkpoint(dump_checkpoint({}, {"a": np.zeros(3)}, {})),
    "DenseLayer": lambda: DenseLayer(np.zeros((2, 2)), np.zeros(2)),
    "AutoencoderModel": lambda: build_autoencoder(4, ((2, "sigmoid"),), "learned_linear"),
    "ForwardCache": lambda: nn._forward_cached(
        build_autoencoder(4, ((2, "sigmoid"),), "learned_linear"), np.zeros((3, 4)),
        "eval", nn.NO_REGULARIZER, None),
    "PcaModel": lambda: PcaModel(np.eye(2, 4), np.zeros(4)),
}


@pytest.mark.parametrize("name", MAKERS)
def test_equality_and_hash_are_identity(name):
    a = MAKERS[name]()
    assert type(a).__name__ == name
    twin = copy.copy(a)
    assert a == a and not (a != a)
    assert a != twin and not (a == twin)
    assert hash(a) == hash(a)
    assert len({a, twin, a}) == 2
