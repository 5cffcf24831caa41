"""Heads in the dense layout, for tests.

``full_head`` holds a weight for every one of its ``dim`` columns, so it
behaves as a ``(classes, dim)`` weight matrix: the dense references and
the tests that set arbitrary weights use it. ``dense_weights`` expands
any head to all ``dim`` columns, with 0 where it holds none, which is
what its logits are computed from. ``dense_loss_and_grad`` is
``loss_and_grad`` over those ``dim`` columns, so an example's feature
indices are its rows.
"""
from __future__ import annotations

import numpy as np

from catparse.scoring import DEFAULT_DIM, LinearModel, loss_and_grad


def full_head(dim: int = DEFAULT_DIM, classes: int = 4, hash_seed: int = 0) -> LinearModel:
    return LinearModel(
        columns=np.arange(dim),
        weights=np.zeros((classes, dim)),
        bias=np.zeros(classes),
        hash_seed=hash_seed,
        dim=dim,
    )


def dense_weights(model: LinearModel) -> np.ndarray:
    dense = np.zeros((model.classes, model.dim))
    dense[:, model.columns] = model.weights
    return dense


def dense_loss_and_grad(model: LinearModel, feats, labels, class_weights):
    """(loss, the (dim, classes) weight gradient, the bias gradient)."""
    return loss_and_grad(dense_weights(model).T, model.bias, feats, labels, class_weights)
