import math

import numpy as np
import pytest

from eigennet.consensus import ConsensusResult, _synthetic_result
from eigennet.eigencore import EigenSolution
from eigennet.errors import ConsensusError
from eigennet.topology import Graph, metropolis_weights


@pytest.fixture
def path3():
    return Graph(3, ((0, 1), (1, 2)))


@pytest.fixture
def path3_weights(path3):
    return metropolis_weights(path3)


def random_hermitian_psd(k, seed, n=None):
    """Random PSD Hermitian matrix via a complex sample product."""
    rng = np.random.default_rng(seed)
    n = n or k
    y = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    return (y @ y.conj().T) / n


def random_samples(k, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


def random_connected_graph(k, seed, p=0.45):
    """Erdos-Renyi-style connected graph: spanning chain plus random edges."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(k - 1)}
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(k, tuple(sorted(edges)))


def consensus_deviation(z0, z):
    """A consensus output's deviation from the exact per-column mean of its
    (K,), (K, m) or (trials, K, m) input."""
    z0 = np.asarray(z0)
    return z - z0.mean(axis=0 if z0.ndim == 1 else -2, keepdims=True)


class ReplayEngine:
    """Synthetic consensus returning pre-recorded outputs, ignoring the input.

    Used by locality tests: with replayed consensus outputs, a node's local
    updates must depend only on its own samples.
    """

    def __init__(self, outputs):
        self._outputs = [np.asarray(o) for o in outputs]
        self.calls = 0

    def run(self, z0: np.ndarray) -> ConsensusResult:
        z0 = np.asarray(z0)
        if self.calls >= len(self._outputs):
            raise ConsensusError("replay engine ran out of outputs")
        z = self._outputs[self.calls].copy()
        self.calls += 1
        if z.shape != z0.shape:
            raise ConsensusError("replayed output shape does not match input")
        return _synthetic_result(z0, z)


def _hermitian_deviation(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - a.conj().T))


def dense_hermitian_eig(
    r: np.ndarray, *, tol: float = 1e-12, max_sweeps: int = 100
) -> EigenSolution:
    """Full Hermitian eigendecomposition by cyclic Jacobi rotations.

    Sweeps rotate every off-diagonal pair until the off-diagonal Frobenius
    norm drops below ``tol * ||R||_F``. Returns descending eigenvalues (stable
    order on ties) and orthonormal eigenvectors as columns.
    """
    a = np.asarray(r, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if _hermitian_deviation(a) > 1e-12 * max(scale, 1.0):
        raise ValueError("input must be Hermitian")
    a = (a + a.conj().T) / 2.0
    vecs = np.eye(n, dtype=complex)
    if n == 1 or scale == 0.0:
        values = np.real(np.diag(a)).copy()
        order = np.argsort(-values, kind="stable")
        return EigenSolution(values[order], vecs[:, order])

    def off_norm(mat: np.ndarray) -> float:
        o = mat - np.diag(np.diag(mat))
        return float(np.linalg.norm(o))

    skip = tol * scale / (n * n)
    for _ in range(max_sweeps):
        if off_norm(a) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                # Factor out the phase so the 2x2 block becomes real symmetric,
                # then apply the classic symmetric Schur rotation. The full
                # unitary on the (p, q) plane is
                #   U = [[c, sigma], [-sigma * e^{-i phi}, c * e^{-i phi}]]
                # with phi = arg(a_pq).
                phase = apq / abs(apq)
                pconj = np.conj(phase)
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * abs(apq))
                if tau >= 0:
                    tparam = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    tparam = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + tparam * tparam)
                sigma = tparam * c
                col_p = a[:, p] * c - a[:, q] * (sigma * pconj)
                col_q = a[:, p] * sigma + a[:, q] * (c * pconj)
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = a[p, :] * c - a[q, :] * (sigma * phase)
                row_q = a[p, :] * sigma + a[q, :] * (c * phase)
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = vecs[:, p] * c - vecs[:, q] * (sigma * pconj)
                vcol_q = vecs[:, p] * sigma + vecs[:, q] * (c * pconj)
                vecs[:, p] = vcol_p
                vecs[:, q] = vcol_q
    else:
        raise RuntimeError("Jacobi sweeps did not converge")
    values = np.real(np.diag(a)).copy()
    order = np.argsort(-values, kind="stable")
    return EigenSolution(values[order], vecs[:, order])
