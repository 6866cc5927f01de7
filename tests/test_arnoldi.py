"""The Arnoldi process: the block Gram-Schmidt kernel under one and two
passes, and the CGS2 default's orthogonality and Arnoldi relation on
recycling runs."""

import numpy as np
import pytest

from krylov_recycle.gcro import RecyclingSolver
from krylov_recycle.gmres import ArnoldiState, _Restarted
from krylov_recycle.operators import (
    IluPreconditioner,
    SparseMatrix,
    _extend_arnoldi,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
)


def _orthonormal(rng, n, k):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def _grow(A, start, m, C, reorth, precondition):
    """One m-step ``_extend_arnoldi`` run from ``start`` on fresh bases with
    C at the head of the basis: (width, breakdown, Z, V, Hbar, B) of the
    inner blocks, with Z = V's leading columns when there is no
    preconditioner."""
    Ms = IluPreconditioner(ilu_factor(A, 0)) if precondition else None
    kc = 0 if C is None else C.shape[1]
    W = np.zeros((A.n, kc + m + 1), order="F")
    if kc:
        W[:, :kc] = C
    W[:, kc] = start / np.linalg.norm(start)
    Z = np.zeros((A.n, kc + m), order="F") if precondition else None
    Hbar = np.zeros((kc + m + 1, kc + m))
    Hbar[:kc, :kc] = np.eye(kc)
    end, breakdown = _extend_arnoldi(as_operator(A), Ms, W, Z, Hbar, kc,
                                     kc + m, reorth=reorth)
    width = end - kc
    V = W[:, kc: end + 1]
    Z = V[:, :width] if Z is None else Z[:, kc:end]
    return width, breakdown, Z, V, Hbar[kc: end + 1, kc:end], \
        Hbar[:kc, kc:end]


@pytest.mark.parametrize("reorth", [True, False])
@pytest.mark.parametrize("with_c", [False, True])
class TestGramSchmidtPasses:
    """Both pass counts of the block Gram-Schmidt kernel, with and without
    a recycled basis C."""

    def test_breakdown_probe(self, reorth, with_c):
        # diag(1..n) from e0 + e1: the Krylov space is invariant at width 2.
        n = 40
        A = SparseMatrix.from_dense(np.diag(np.arange(1.0, n + 1)))
        start = np.zeros(n)
        start[:2] = 1.0
        C = np.eye(n)[:, 5:7] if with_c else None
        width, breakdown, *_ = _grow(A, start, 10, C, reorth, False)
        assert (width, breakdown) == (2, True)

    @pytest.mark.parametrize("precondition", [False, True])
    def test_arnoldi_relation(self, reorth, with_c, precondition):
        rng = np.random.default_rng(11)
        A = gen_convection_diffusion((12, 12), 40.0)
        C = _orthonormal(rng, A.n, 4) if with_c else None
        start = rng.standard_normal(A.n)
        if with_c:
            start -= C @ (C.T @ start)
        width, breakdown, Z, V, Hbar, B = _grow(A, start, 25, C, reorth,
                                                precondition)
        assert (width, breakdown) == (25, False)
        AZ = np.column_stack([A.matvec(Z[:, j]) for j in range(width)])
        fit = V @ Hbar + (0.0 if C is None else C @ B)
        scale = np.linalg.norm(np.vstack([B, Hbar]))
        assert np.linalg.norm(AZ - fit) <= 1e-10 * scale


@pytest.mark.parametrize("reorth", [True, False])
@pytest.mark.parametrize("store_z", [False, True])
def test_allocate_is_column_major(reorth, store_z):
    A = gen_convection_diffusion((4, 4), 1.0)
    solver = _Restarted(A, None, m=5, reorth=reorth, store_z=store_z)
    V, Z, _, _ = solver._allocate(5)
    assert V.flags.f_contiguous
    assert Z.flags.f_contiguous if store_z else Z is None


def _relation_and_orthogonality(A, P, state):
    """(relative Arnoldi-relation defect, ||I - [C V]^T [C V]||) of a state.

    The operator is A P^{-1} with Z implicit, A on the stored Z otherwise;
    the C B term of A Z = C B + V Hbar vanishes for an empty C.
    """
    V, Z, Hbar = state.V, state.Z, state.H_inner
    C, B = state.C, state.B
    width = state.width
    if Z is None:
        Z = np.column_stack([P.apply(V[:, j]) for j in range(width)])
    AZ = np.column_stack([A.matvec(Z[:, j]) for j in range(width)])
    fit = V @ Hbar + C @ B
    scale = np.linalg.norm(np.vstack([B, Hbar]))
    W = np.column_stack([C, V])
    rel = np.linalg.norm(AZ - fit) / scale
    orth = np.linalg.norm(W.T @ W - np.eye(W.shape[1]))
    return rel, orth


class TestBlockCgs2:
    """CGS2 keeps [C V] orthonormal on a high-Peclet ILU(0) sequence."""

    @pytest.mark.parametrize("flexible", [False, True])
    def test_invariants_at_criterion_1_bounds(self, flexible):
        # Cell Peclet number 50 / 33 > 1: convection-dominated, nonnormal.
        rng = np.random.default_rng(5)
        A = gen_convection_diffusion((32, 32), 50.0)
        P = IluPreconditioner(ilu_factor(A, 0))
        states = []
        solver = RecyclingSolver(
            A, P, m=10, k=4, m_i=2 if flexible else None, tol=1e-10,
            max_matvecs=5000, state_hook=lambda st, cyc: states.append(st))
        b = rng.standard_normal(A.n)
        for scale in (1.0, 1.05, 0.95):
            _, rep = solver.solve(scale * b + 0.05 * rng.standard_normal(A.n))
            assert rep.converged
        assert all(isinstance(st, ArnoldiState) for st in states)
        assert sum(st.k > 0 for st in states) >= 5
        worst_rel = worst_orth = 0.0
        for st in states:
            rel, orth = _relation_and_orthogonality(A, P, st)
            worst_rel = max(worst_rel, rel)
            worst_orth = max(worst_orth, orth)
            bases = [st.V, st.Z]
            assert all(X.flags.f_contiguous for X in bases if X is not None)
        assert worst_rel <= 1e-10
        assert worst_orth <= 1e-10


def _layout_cycles(monkeypatch, A, P, **kwargs):
    """(state, the cycle's arrays) of every cycle over a non-empty pair in a
    three-system recycling sequence: the arrays are the basis, Z and Hbar
    arguments the cycle's ``_grow`` filled."""
    grown = []
    grow = RecyclingSolver._grow

    def spying(self, V, Z, Hbar, *args):
        grown.append((V, Z, Hbar))
        return grow(self, V, Z, Hbar, *args)

    monkeypatch.setattr(RecyclingSolver, "_grow", spying)
    cycles = []
    solver = RecyclingSolver(
        A, P, m=12, k=4, tol=1e-10, max_matvecs=20_000,
        state_hook=lambda st, cyc: cycles.append((st, grown[-1])), **kwargs)
    rng = np.random.default_rng(21)
    b = rng.standard_normal(A.n)
    for scale in (1.0, 1.05, 0.95):
        _, rep = solver.solve(scale * b + 0.05 * rng.standard_normal(A.n))
        assert rep.converged
    return [(st, basis) for st, basis in cycles if st.k > 0]


@pytest.mark.parametrize("flexible, strategy", [
    (False, "B"), (True, "A"), (True, "B"), (True, "C")])
def test_the_pair_sits_at_the_head_of_the_cycle_arrays(monkeypatch, flexible,
                                                       strategy):
    # GCRO-DR with ILU(0), and FGCRO-DR with inner GMRES around ILU(0).
    A = gen_convection_diffusion((16, 16), 20.0)
    P = IluPreconditioner(ilu_factor(A, 0))
    cycles = _layout_cycles(monkeypatch, A, P, strategy=strategy,
                            m_i=2 if flexible else None)
    assert len(cycles) >= 3
    for st, (V, Z, Hbar) in cycles:
        # What, Hbar and their blocks are the cycle's own arrays.
        for block in (st.What, st.C, st.V):
            assert np.shares_memory(block, V)
        for block in (st.Hbar, st.B, st.H_inner):
            assert np.shares_memory(block, Hbar)
        if flexible:
            assert np.shares_memory(st.vhat(), Z)
        assert np.linalg.norm(st.C.T @ st.V) <= 1e-12
        Vhat = st.vhat()
        Z = Vhat if flexible else np.column_stack(
            [P.apply(v) for v in Vhat.T])
        AV = np.column_stack([A.matvec(z) for z in Z.T])
        assert np.linalg.norm(AV - st.What @ st.Hbar) \
            <= 1e-9 * np.linalg.norm(AV)
