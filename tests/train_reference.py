"""Reference trainer: the dense optimizer loop and the ``np.add.at``
gradient that ``scoring.train`` and ``scoring.loss_and_grad`` replaced
with a loop in the compact space of touched columns and a per-class
``np.bincount``.

Kept as the definition the compact loop must reproduce exactly (weight
and bias bytes, every epoch-callback snapshot, and the gradient's
bytes); ``test_scoring`` compares the two.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from catparse.scoring import (
    _BETA1,
    _BETA2,
    _EPS,
    DEFAULT_DIM,
    EmptyTrainingSet,
    LinearModel,
    ScoringInput,
    TrainConfig,
    featurize,
    inverse_frequency_weights,
)

from .dense_heads import full_head


def reference_loss_and_grad(
    model: LinearModel,
    feats: Sequence[tuple[np.ndarray, np.ndarray]],
    labels: Sequence[int],
    class_weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    errors = np.empty((len(feats), model.classes), dtype=np.float64)
    loss = 0.0
    for row, ((indices, values), label) in enumerate(zip(feats, labels)):
        logits = model.logits_for(indices, values)
        shifted = logits - np.max(logits)
        probs = np.exp(shifted)
        total = probs.sum()
        probs /= total
        loss += class_weights[label] * (np.log(total) - shifted[label])
        probs[label] -= 1.0
        errors[row] = probs * class_weights[label]
    all_cols = np.concatenate([indices for indices, _ in feats])
    all_vals = np.concatenate([values for _, values in feats])
    rows = np.repeat(np.arange(len(feats)), [len(indices) for indices, _ in feats])
    cols, inverse = np.unique(all_cols, return_inverse=True)
    contrib = errors[rows] * all_vals[:, None]
    grad_t = np.zeros((len(cols), model.classes), dtype=np.float64)
    np.add.at(grad_t, inverse, contrib)
    scale = 1.0 / len(feats)
    return float(loss * scale), cols, grad_t.T * scale, errors.sum(axis=0) * scale


def reference_train(
    examples: Sequence[tuple[ScoringInput, int]],
    config: TrainConfig,
    classes: int = 4,
    dim: int = DEFAULT_DIM,
    epoch_callback: Callable[[int, LinearModel], None] | None = None,
) -> LinearModel:
    if not examples:
        raise EmptyTrainingSet("cannot train on an empty example list")
    model = full_head(dim=dim, classes=classes, hash_seed=config.seed)
    feats = [featurize(inp, model.hash_seed, dim) for inp, _ in examples]
    labels = np.array([int(label) for _, label in examples], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError("label out of range for the class count")
    class_weights = np.ones(classes, dtype=np.float64)
    if config.class_weighting:
        class_weights = inverse_frequency_weights(labels, classes)

    moment1 = np.zeros_like(model.weights)
    moment2 = np.zeros_like(model.weights)
    bias_m1 = np.zeros_like(model.bias)
    bias_m2 = np.zeros_like(model.bias)
    last_step = np.zeros(dim, dtype=np.int64)
    step = 0
    lr, decay = config.learning_rate, config.weight_decay

    rng = np.random.default_rng(config.seed)
    n = len(examples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            step += 1
            _, cols, grad, bias_grad = reference_loss_and_grad(
                model, [feats[j] for j in batch], labels[batch], class_weights
            )

            # Catch up lazily skipped steps: decay moments and apply the
            # decoupled weight decay those columns would have received.
            lag = (step - 1) - last_step[cols]
            moment1[:, cols] *= _BETA1 ** lag
            moment2[:, cols] *= _BETA2 ** lag
            model.weights[:, cols] *= (1.0 - lr * decay) ** lag
            last_step[cols] = step

            moment1[:, cols] = _BETA1 * moment1[:, cols] + (1 - _BETA1) * grad
            moment2[:, cols] = _BETA2 * moment2[:, cols] + (1 - _BETA2) * grad**2
            m_hat = moment1[:, cols] / (1 - _BETA1**step)
            v_hat = moment2[:, cols] / (1 - _BETA2**step)
            model.weights[:, cols] = model.weights[:, cols] * (1.0 - lr * decay) - (
                lr * m_hat / (np.sqrt(v_hat) + _EPS)
            )

            bias_m1 = _BETA1 * bias_m1 + (1 - _BETA1) * bias_grad
            bias_m2 = _BETA2 * bias_m2 + (1 - _BETA2) * bias_grad**2
            b_hat1 = bias_m1 / (1 - _BETA1**step)
            b_hat2 = bias_m2 / (1 - _BETA2**step)
            model.bias -= lr * b_hat1 / (np.sqrt(b_hat2) + _EPS)

        if epoch_callback is not None:
            _settle_decay(model, last_step, step, lr, decay)
            epoch_callback(epoch, model)

    _settle_decay(model, last_step, step, lr, decay)
    return model


def _settle_decay(
    model: LinearModel, last_step: np.ndarray, step: int, lr: float, decay: float
) -> None:
    """Apply the weight decay owed to columns not touched since their last update."""
    lag = step - last_step
    pending = lag > 0
    if np.any(pending):
        model.weights[:, pending] *= (1.0 - lr * decay) ** lag[pending]
        last_step[pending] = step
