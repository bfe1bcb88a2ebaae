"""Reference oracle for `dataio.Normalizer` and `dataio.split_and_fit`:
the two normalizer classes that `Normalizer` replaced, one per feature and
one per detector, and the `split_and_fit` that fitted them, kept verbatim
so the one class can be checked against them bit for bit. Only the
imports differ, and the registry, now the `REGISTRY` constant."""

from dataclasses import dataclass

import numpy as np

from evacnet.dataio import (BINARY_FEATURES, REGISTRY, SPATIAL_FEATURES,
                            TEMPORAL_FEATURES, ShortSpanError)


@dataclass
class Normalizer:
    """Per-feature affine transform fitted on the training split only.

    transform(x) = (x - shift) / scale; binary features pass through and
    every other feature is z-scored.
    """
    names: list
    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, names, values_per_feature):
        """values_per_feature: list of 1-d arrays of training values."""
        shift = np.zeros(len(names))
        scale = np.ones(len(names))
        for k, (name, vals) in enumerate(zip(names, values_per_feature)):
            vals = np.asarray(vals, dtype=float)
            vals = vals[~np.isnan(vals)]
            if name in BINARY_FEATURES or vals.size == 0:
                continue
            shift[k] = vals.mean()
            s = vals.std()
            scale[k] = s if s > 0 else 1.0
        return cls(list(names), shift, scale)

    def transform(self, x):
        return (x - self.shift) / self.scale

    def inverse(self, x):
        return x * self.scale + self.shift


@dataclass
class TargetNormalizer:
    """Per-detector z-score of flow, from training-split statistics."""
    mean: np.ndarray  # (n_det,)
    std: np.ndarray

    @classmethod
    def fit(cls, flow, active, train_end):
        n_det = flow.shape[0]
        mean = np.zeros(n_det)
        std = np.ones(n_det)
        for i in range(n_det):
            vals = flow[i, :train_end][active[i, :train_end]]
            if vals.size:
                mean[i] = vals.mean()
                s = vals.std()
                std[i] = s if s > 0 else 1.0
        return cls(mean, std)

    def transform(self, det_indices, values):
        det_indices = np.asarray(det_indices)
        return ((values - self.mean[det_indices][:, None])
                / self.std[det_indices][:, None])

    def inverse(self, det_indices, values):
        det_indices = np.asarray(det_indices)
        return (values * self.std[det_indices][:, None]
                + self.mean[det_indices][:, None])


def split_and_fit(data, train_frac=0.9):
    """Chronological split; fit feature and target normalizers on train.

    Returns (train_end, Normalizer, TargetNormalizer) where hours
    [0, train_end) are training and [train_end, T) validation.
    """
    n_hours = len(data.timeline)
    train_end = int(n_hours * train_frac)
    if train_end < 1 or train_end >= n_hours:
        raise ShortSpanError(f"a split of {n_hours} hours produces an empty "
                             f"train or validation set")

    mask = data.active[:, :train_end]
    f_t = len(TEMPORAL_FEATURES)
    temporal_vals = [data.temporal[:, :train_end, k][mask]
                     for k in range(f_t)]
    spatial_vals = [data.spatial[:, k] for k in range(len(SPATIAL_FEATURES))]
    norm = Normalizer.fit(list(REGISTRY), temporal_vals + spatial_vals)
    target_norm = TargetNormalizer.fit(data.flow, data.active, train_end)
    return train_end, norm, target_norm
