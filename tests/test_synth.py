import numpy as np
import pytest

from mixnorm.errors import InvalidParameterError
from mixnorm.model import lq_norm
from mixnorm.synth import (SynthSpec, equal_partition, gen_joint_sparse,
                           gen_screening_instance)


def test_joint_sparse_shapes_and_support():
    spec = SynthSpec(m=30, d=50, k=8, d_tilde=12, sigma=0.1, seed=4)
    A, X, Y = gen_joint_sparse(spec)
    assert A.shape == (30, 50)
    assert X.shape == (50, 8)
    assert Y.shape == (30, 8)
    row_norms = np.linalg.norm(X, axis=1)
    assert np.all(row_norms[:12] > 0)
    assert np.all(row_norms[12:] == 0)


def test_joint_sparse_noise_model():
    spec = SynthSpec(m=25, d=40, k=5, d_tilde=6, sigma=0.0, seed=9)
    A, X, Y = gen_joint_sparse(spec)
    assert np.allclose(Y, A @ X)
    noisy = SynthSpec(m=25, d=40, k=5, d_tilde=6, sigma=0.5, seed=9)
    _, _, Y2 = gen_joint_sparse(noisy)
    assert not np.allclose(Y2, A @ X)


def test_joint_sparse_deterministic():
    spec = SynthSpec(m=20, d=30, k=4, d_tilde=5, seed=77)
    a = gen_joint_sparse(spec)
    b = gen_joint_sparse(spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = gen_joint_sparse(SynthSpec(m=20, d=30, k=4, d_tilde=5, seed=78))
    assert not np.array_equal(a[0], c[0])


def test_joint_sparse_entry_dists():
    u = SynthSpec(m=15, d=20, k=3, d_tilde=4, entry_dist="uniform01", seed=1)
    _, Xu, _ = gen_joint_sparse(u)
    assert Xu[:4].min() >= 0.0 and Xu[:4].max() <= 1.0
    g = SynthSpec(m=15, d=20, k=3, d_tilde=4, entry_dist="standard_normal", seed=1)
    _, Xg, _ = gen_joint_sparse(g)
    assert Xg[:4].min() < 0.0


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        SynthSpec(m=0)
    with pytest.raises(InvalidParameterError):
        gen_joint_sparse(SynthSpec(d_tilde=300, d=200))
    with pytest.raises(InvalidParameterError):
        SynthSpec(sigma=-0.1)
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError):
            SynthSpec(sigma=sigma)
    with pytest.raises(InvalidParameterError):
        SynthSpec(entry_dist="cauchy")
    with pytest.raises(InvalidParameterError):
        SynthSpec(corr_range=(0.5, -0.5))
    with pytest.raises(InvalidParameterError):
        SynthSpec(corr_range=(-1.5, 0.5))
    with pytest.raises(InvalidParameterError):
        SynthSpec(seed=-1)


def test_equal_partition():
    part = equal_partition(10, 4)
    assert sum(part.sizes) == 10
    assert part.s == 4
    assert max(part.sizes) - min(part.sizes) <= 1
    exact = equal_partition(100, 25)
    assert set(exact.sizes) == {4}
    with pytest.raises(InvalidParameterError):
        equal_partition(3, 5)


def test_screening_instance_structure():
    spec = SynthSpec(m=40, d=90, num_groups=18, corr_range=(-0.6, 0.6), seed=2)
    inst = gen_screening_instance(spec, q=2.0)
    assert inst.B.shape == (40, 90)
    assert inst.partition.s == 18
    assert inst.lam == 0.0
    # unit columns
    assert np.allclose(np.linalg.norm(inst.B, axis=0), 1.0)
    # correlation with the response direction lands in the requested range
    yhat = inst.Y / np.linalg.norm(inst.Y)
    cos = inst.B.T @ yhat
    assert cos.min() >= -0.6 - 1e-9
    assert cos.max() <= 0.6 + 1e-9
    # and actually spreads over it rather than collapsing to one value
    assert cos.max() - cos.min() > 0.3


def test_screening_default_preset():
    spec = SynthSpec.screening_default(seed=5)
    assert (spec.m, spec.d, spec.num_groups) == (100, 1000, 100)
    inst = gen_screening_instance(spec)
    assert inst.partition.s == 100
    assert inst.p == 1000


def test_screening_instance_correlations_exact():
    # cosine of each column with yhat is drawn uniformly, then hit exactly
    spec = SynthSpec(m=30, d=12, d_tilde=6, num_groups=3,
                     corr_range=(-0.8, 0.8), seed=13)
    inst = gen_screening_instance(spec)
    yhat = inst.Y / np.linalg.norm(inst.Y)
    rng = np.random.default_rng(13)
    rng.standard_normal(30)  # response draw comes first in the generator
    want = rng.uniform(-0.8, 0.8, size=12)
    assert np.allclose(inst.B.T @ yhat, want, atol=1e-10)
