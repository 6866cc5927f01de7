"""The Arnoldi process: single-pass MGS against its reference loop, and the
block CGS2 default's orthogonality and Arnoldi relation on recycling runs."""

import numpy as np
import pytest

from krylov_recycle.gcro import GeneralizedArnoldiState, RecyclingSolver
from krylov_recycle.gmres import ArnoldiState
from krylov_recycle.operators import (
    BREAKDOWN_TOL,
    IluPreconditioner,
    SparseMatrix,
    _extend_arnoldi,
    as_operator,
    gen_convection_diffusion,
    ilu_factor,
)


def _mgs_reference(apply_op, Ms, V, Z, Hbar, j0, m, C=None, B=None):
    """The per-column single-pass modified Gram-Schmidt Arnoldi loop that
    ``_extend_arnoldi(..., reorth=False)`` must reproduce byte for byte."""
    for j in range(j0, m):
        v = V[:, j]
        if Ms is not None:
            z = Ms.apply(v)
            if Z is not None:
                Z[:, j] = z
        else:
            z = v
        w = apply_op(z)
        wnorm0 = np.linalg.norm(w)
        if C is not None and C.shape[1] > 0:
            t = C.T @ w
            w -= C @ t
            B[:, j] += t
        for i in range(j + 1):
            hij = V[:, i] @ w
            w -= hij * V[:, i]
            Hbar[i, j] += hij
        hnext = np.linalg.norm(w)
        Hbar[j + 1, j] = hnext
        if hnext <= BREAKDOWN_TOL * max(wnorm0, 1e-300):
            return j + 1, True
        V[:, j + 1] = w / hnext
    return m, False


def _arrays(n, m, kc, order, start):
    V = np.zeros((n, m + 1), order=order)
    V[:, 0] = start / np.linalg.norm(start)
    return V, np.zeros((n, m), order=order), np.zeros((m + 1, m)), \
        np.zeros((kc, m))


def _run_both(A, start, m, C, order, precondition):
    """(reference, tested) results of one m-step single-pass run."""
    op = as_operator(A)
    Ms = IluPreconditioner(ilu_factor(A, 0)) if precondition else None
    kc = 0 if C is None else C.shape[1]
    out = []
    for grow in (_mgs_reference, _extend_arnoldi):
        V, Z, Hbar, B = _arrays(A.n, m, kc, order, start)
        kwargs = {"reorth": False} if grow is _extend_arnoldi else {}
        width, breakdown = grow(op, Ms, V, Z, Hbar, 0, m, C=C,
                                B=None if C is None else B, **kwargs)
        out.append((width, breakdown, V, Z[:, :width], Hbar, B))
    return out


def _assert_same_bytes(ref, got):
    assert ref[:2] == got[:2]
    for a, b in zip(ref[2:], got[2:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _orthonormal(rng, n, k):
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


class TestSinglePassMgs:
    """``reorth=False`` keeps the single-pass MGS loop, byte for byte."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("with_c", [False, True])
    @pytest.mark.parametrize("precondition", [False, True])
    def test_matches_reference_loop(self, order, with_c, precondition):
        rng = np.random.default_rng(11)
        A = gen_convection_diffusion((12, 12), 40.0)
        C = _orthonormal(rng, A.n, 4) if with_c else None
        start = rng.standard_normal(A.n)
        if with_c:
            start -= C @ (C.T @ start)
        ref, got = _run_both(A, start, 25, C, order, precondition)
        assert not ref[1] and ref[0] == 25
        _assert_same_bytes(ref, got)

    @pytest.mark.parametrize("with_c", [False, True])
    def test_matches_reference_loop_through_breakdown(self, with_c):
        # diag(1..n) from e0 + e1: the Krylov space is invariant at width 2.
        n = 40
        A = SparseMatrix.from_dense(np.diag(np.arange(1.0, n + 1)))
        start = np.zeros(n)
        start[:2] = 1.0
        C = np.eye(n)[:, 5:7] if with_c else None
        ref, got = _run_both(A, start, 10, C, "C", False)
        assert ref[:2] == (2, True)
        _assert_same_bytes(ref, got)


def _relation_and_orthogonality(A, P, state):
    """(relative Arnoldi-relation defect, ||I - [C V]^T [C V]||) of a state.

    The operator is A P^{-1} with Z implicit, A on the stored Z otherwise;
    a projected state adds the C B term of A Z = C B + V Hbar.
    """
    if isinstance(state, ArnoldiState):
        V, Z, Hbar, C, B = state.V, state.Z, state.Hbar, None, None
        width = state.j
    else:
        V, Z, Hbar = state.V, state.Z_inner, state.H_inner
        C, B = state.C, state.B
        width = state.width
    if Z is None:
        Z = np.column_stack([P.apply(V[:, j]) for j in range(width)])
    AZ = np.column_stack([A.matvec(Z[:, j]) for j in range(width)])
    fit = V @ Hbar
    scale = np.linalg.norm(Hbar)
    W = V
    if C is not None:
        fit = fit + C @ B
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
        projected = [st for st in states
                     if isinstance(st, GeneralizedArnoldiState)]
        assert len(projected) >= 5
        assert all(st.k > 0 for st in projected)
        worst_rel = worst_orth = 0.0
        for st in states:
            rel, orth = _relation_and_orthogonality(A, P, st)
            worst_rel = max(worst_rel, rel)
            worst_orth = max(worst_orth, orth)
            bases = [st.V, getattr(st, "Z", None),
                     getattr(st, "Z_inner", None)]
            assert all(X.flags.f_contiguous for X in bases if X is not None)
        assert worst_rel <= 1e-10
        assert worst_orth <= 1e-10
