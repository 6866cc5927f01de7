"""Shared fixtures: the seeded reference coupled problem and helpers."""

import numpy as np
import pytest

from krylov_recycle.coupled import gen_coupled_problem, monolithic_oracle

# Reference coupled problem: 24x24 fluid grid (n=576), 8 structural
# unknowns, moderate coupling (block Gauss-Seidel spectral radius ~0.30).
REFERENCE_KWARGS = dict(n_grid=(24, 24), n_s=8, peclet=30.0,
                        coupling_strength=45.0, seed=1234)


@pytest.fixture(scope="session")
def reference_problem():
    return gen_coupled_problem(**REFERENCE_KWARGS)


@pytest.fixture(scope="session")
def reference_oracle(reference_problem):
    return monolithic_oracle(reference_problem)


def count_splu(monkeypatch):
    """The shape of every matrix that operators hands to ``splu`` from now
    on: an exact LU of A is A.n square, a small ILU factor's block object
    twice that."""
    from krylov_recycle import operators

    shapes = []
    splu = operators.splu

    def counted(M, *args, **kwargs):
        shapes.append(M.shape)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(operators, "splu", counted)
    return shapes


def random_sparse(rng, n, density=0.1, diag_boost=None):
    """Seeded random sparse test matrix with a dominant diagonal."""
    from krylov_recycle.operators import SparseMatrix

    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    boost = diag_boost if diag_boost is not None else n * density + 2.0
    np.fill_diagonal(dense, dense.diagonal() + boost)
    return SparseMatrix.from_dense(dense)


def restart_direction(state):
    """The restart residual direction GMRES-DR builds from a cycle: the
    last column of its restart map over an empty P_k, of unit length."""
    from krylov_recycle.gmres import (_augmented_restart_basis,
                                      harmonic_ritz_standard)

    _, f, h = harmonic_ritz_standard(state, 1)
    return _augmented_restart_basis(np.empty((state.m, 0)), f, h)[:, 0]


def joint_state(C, V, H_inner, B, U, Z=None):
    """Hand-built ArnoldiState of separately held blocks, copied into the
    solver's layout: C at the head of the basis, I_k at the head of Hbar,
    and for a flexible state U at the head of Zhat.  It has no monitor
    right-hand side c."""
    from krylov_recycle.gmres import ArnoldiState

    k, w = C.shape[1], H_inner.shape[1]
    What = np.column_stack([C, V])
    Hbar = np.zeros((k + w + 1, k + w))
    Hbar[:k, :k] = np.eye(k)
    Hbar[:k, k:], Hbar[k:, k:] = B, H_inner
    Zhat = None if Z is None else np.column_stack([U, Z])
    return ArnoldiState(What, Hbar, None, U, Zhat)
