import numpy as np
import pytest

from mixnorm.model import GroupPartition, ProblemInstance

try:
    from hypothesis import settings
    settings.register_profile("suite", max_examples=25, deadline=None,
                              derandomize=True)
    settings.load_profile("suite")
except ImportError:
    pass


def random_partition(rng, p, max_groups=None):
    """Random contiguous partition of p coordinates."""
    max_groups = max_groups or max(1, p // 2)
    s = int(rng.integers(1, max_groups + 1))
    cuts = np.sort(rng.choice(np.arange(1, p), size=s - 1, replace=False)) if s > 1 else np.array([], dtype=int)
    edges = np.concatenate(([0], cuts, [p]))
    return GroupPartition(tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:])))


def random_instance(rng, m, p, q, lam_ratio=0.3, partition=None):
    """Gaussian design instance with lam set to lam_ratio * lambda_max."""
    from mixnorm.screening import lambda_max
    B = rng.standard_normal((m, p))
    Y = rng.standard_normal(m)
    part = partition or random_partition(rng, p)
    inst = ProblemInstance(B, Y, part, q, 0.0)
    lmax = lambda_max(inst).value
    return inst.with_lam(lam_ratio * lmax)


def numpy_relative_gap(B, Y, w, sizes, q, lam):
    """(P - D) / P at w with the dual point r / max(lam, max_i ||B_i^T r||_qbar),
    r = Y - B w, group by group through numpy's own vector norms."""
    edges = np.cumsum((0, *sizes))
    groups = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    qbar = np.inf if q == 1 else 1.0 if q == np.inf else q / (q - 1.0)
    r = Y - B @ w
    P = 0.5 * r @ r + lam * sum(np.linalg.norm(w[g], q) for g in groups)
    theta = r / max(lam, max(np.linalg.norm(B[:, g].T @ r, qbar) for g in groups))
    D = 0.5 * Y @ Y - 0.5 * np.sum((Y - lam * theta) ** 2)
    return (P - D) / P


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
