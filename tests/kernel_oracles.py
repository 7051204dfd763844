"""Bool-matrix oracles for the packed kernels (test-only).

The seed implementation's float32 product and σ-composition, kept
verbatim so every packed primitive — and the shared ``(σ, T, T_em)``
combine built on them — stays differentially testable against the
simplest possible formulation.
"""

import numpy as np

_DEAD = -1


def reference_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The seed boolean product: float32 matmul with per-use conversions."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def reference_compose_pure(
    sigma: np.ndarray, matrix: np.ndarray, dead: int = _DEAD
) -> np.ndarray:
    """The seed σ-composition on bool matrices (dead rows zeroed)."""
    gathered = matrix[np.where(sigma == dead, 0, sigma)]
    gathered[sigma == dead] = False
    return gathered


def reference_function_matrix(sigma: np.ndarray, q: int, dead: int = _DEAD):
    """The partial function σ as a dense bool relation."""
    step = np.zeros((len(sigma), q), dtype=bool)
    valid = sigma != dead
    step[np.nonzero(valid)[0], sigma[valid]] = True
    return step


def reference_combine(left, right, q: int, dead: int = _DEAD):
    """One pair's ``(σ, T, T_em)`` from bool entries, the seed way."""
    sigma_l, _, em_l = left
    sigma_r, t_r, em_r = right
    dead_l = sigma_l == dead
    sigma = np.where(dead_l, dead, sigma_r[np.where(dead_l, 0, sigma_l)])
    em = reference_mm(em_l, t_r) | reference_compose_pure(sigma_l, em_r, dead)
    return sigma, em | reference_function_matrix(sigma, q, dead), em
