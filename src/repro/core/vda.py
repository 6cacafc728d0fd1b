"""Voltage Difference Adjustment (VDA) policies -- the VP outer update.

After one bottom-up propagation pass, each pillar ``j`` reports a residual
``F(j)``: for pinned pillars the gap ``VDD - V'dd(j)`` between the nominal
rail and the propagated source voltage; for un-pinned pillars the leftover
pillar current expressed in volts.  VDA turns ``F`` into a correction of
the layer-0 boundary guesses ``V0``.

The paper prescribes a damped update ``V0 += eta * F`` with ``eta << 1``
chosen so "the voltage difference of the new state [is] smaller than the
previous iteration" (§III-C).  :class:`FixedEtaVDA` is that rule verbatim;
:class:`AdaptiveEtaVDA` automates the shrink-on-growth safeguard;
:class:`PerPillarSecantVDA` (the library default) estimates each pillar's
gain ``dF/dV0`` from consecutive iterates -- a diagonal quasi-Newton
update that typically converges in a handful of outer iterations;
:class:`AndersonVDA` applies windowed Anderson acceleration to the same
fixed-point map.  Benchmark E8 compares all four.

Every policy is batch-aware: ``V0`` and ``F`` may be ``(P,)`` vectors
(one scenario) or ``(P, S)`` matrices (``S`` scenarios solved in
lockstep by the batched engine).  Columns are independent -- residual
norms, damping factors, secant gains, and Anderson windows are kept per
scenario -- so the batched iteration of column ``s`` reproduces exactly
the sequence a standalone solve of scenario ``s`` would take.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ReproError


def _scenario_norm(residual: np.ndarray):
    """``max_j |F_j|`` per scenario: a float for ``(P,)`` residuals, an
    ``(S,)`` array for ``(P, S)`` batches (empty pillar sets give 0)."""
    if residual.ndim == 1:
        return float(np.max(np.abs(residual))) if residual.size else 0.0
    if residual.shape[0] == 0:
        return np.zeros(residual.shape[1])
    return np.max(np.abs(residual), axis=0)


class VDAPolicy:
    """Interface: :meth:`update` maps (V0, residual F) to the next V0.

    Implementations accept ``(P,)`` single-scenario vectors or ``(P, S)``
    scenario batches and keep any internal state column-independent.
    ``active`` (an ``(S,)`` mask, batched calls only) marks the columns
    whose updated values the caller will use -- policies with per-column
    work may skip retired columns, but state must stay full-width.
    """

    name = "base"

    def reset(self, n_pillars: int | tuple[int, ...]) -> None:
        """Prepare for a fresh solve; ``n_pillars`` is ``P`` or the batch
        shape ``(P, S)``."""

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError


class FixedEtaVDA(VDAPolicy):
    """The paper's basic rule: ``V0 += eta * F`` with constant damping.

    ``eta`` may be a scalar or an ``(S,)`` per-scenario array (the batch
    engine auto-scales damping per design point).
    """

    name = "fixed"

    def __init__(self, eta: float | np.ndarray = 0.5):
        if np.any(np.asarray(eta) <= 0):
            raise ReproError("eta must be positive")
        self.eta = eta

    def reset(self, n_pillars: int | tuple[int, ...]) -> None:
        del n_pillars

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        del active  # elementwise update: no per-column work to skip
        return v0 + self.eta * residual


class AdaptiveEtaVDA(VDAPolicy):
    """Fixed-eta with the paper's monotonicity principle automated.

    Grows ``eta`` while ``||F||_inf`` keeps shrinking; on growth of the
    residual (the "new state" got worse), shrinks ``eta`` and keeps going.
    """

    name = "adaptive"

    def __init__(
        self,
        eta0: float | np.ndarray = 0.5,
        grow: float = 1.25,
        shrink: float = 0.5,
        eta_max: float = 1.5,
        eta_min: float = 1e-9,
    ):
        if not 0 < shrink < 1 < grow:
            raise ReproError("need shrink in (0,1) and grow > 1")
        self.eta0 = eta0
        self.grow = grow
        self.shrink = shrink
        self.eta_max = eta_max
        self.eta_min = eta_min
        self.eta = eta0
        self._prev_norm = None

    def reset(self, n_pillars: int | tuple[int, ...]) -> None:
        del n_pillars
        self.eta = self.eta0
        self._prev_norm = None

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        del active  # elementwise update: no per-column work to skip
        # Per-scenario norms: each batch column grows/shrinks its own eta.
        norm = _scenario_norm(residual)
        if self._prev_norm is not None:
            if np.ndim(norm) == 0:
                if norm < self._prev_norm:
                    self.eta = min(float(np.max(self.eta)) * self.grow, self.eta_max)
                else:
                    self.eta = max(float(np.min(self.eta)) * self.shrink, self.eta_min)
            else:
                self.eta = np.clip(
                    np.where(
                        norm < self._prev_norm,
                        np.asarray(self.eta) * self.grow,
                        np.asarray(self.eta) * self.shrink,
                    ),
                    self.eta_min,
                    self.eta_max,
                )
        self._prev_norm = norm
        return v0 + self.eta * residual


class PerPillarSecantVDA(VDAPolicy):
    """Diagonal secant (quasi-Newton) VDA -- the library default.

    The outer map is affine: ``F(V0) = F* - A (V0 - V0*)`` with an
    (unknown) Jacobian ``-A``.  From two consecutive iterates each pillar
    gets a finite-difference gain estimate
    ``a_j ~= -(F_j - F_j_prev) / (V0_j - V0_j_prev)`` and the Newton-like
    update ``V0_j += F_j / a_j``.  Gains are clamped to a sane range and
    the first step falls back to the damped rule.
    """

    name = "secant"

    def __init__(
        self,
        eta0: float | np.ndarray = 0.5,
        gain_min: float = 0.5,
        gain_max: float = 1e6,
        dv_floor: float = 1e-9,
    ):
        self.eta0 = eta0
        self.gain_min = gain_min
        self.gain_max = gain_max
        # Pillar movements below this (volts) are too noise-dominated to
        # yield a usable finite-difference gain (inner solves are inexact).
        self.dv_floor = dv_floor
        self._prev_v0: np.ndarray | None = None
        self._prev_f: np.ndarray | None = None
        self._gain: np.ndarray | None = None

    def reset(self, n_pillars: int | tuple[int, ...]) -> None:
        self._prev_v0 = None
        self._prev_f = None
        self._gain = np.full(n_pillars, np.nan)

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        del active  # elementwise update: no per-column work to skip
        if self._gain is None:
            self._gain = np.full(v0.shape, np.nan)
        if self._prev_v0 is not None:
            dv = v0 - self._prev_v0
            df = residual - self._prev_f
            with np.errstate(divide="ignore", invalid="ignore"):
                estimate = -df / dv
            valid = (np.abs(dv) > self.dv_floor) & np.isfinite(estimate)
            self._gain[valid] = np.clip(
                estimate[valid], self.gain_min, self.gain_max
            )
        step = np.where(
            np.isnan(self._gain), self.eta0 * residual, residual / self._gain
        )
        # Trust region: a Newton step should not overshoot the residual
        # scale (gains are >= 1 for pinned pillars at the true Jacobian).
        # Per-scenario caps keep batch columns independent.
        cap = 2.0 * np.asarray(_scenario_norm(residual))
        if residual.size and np.any(cap > 0):
            step = np.clip(step, -cap, cap)
        self._prev_v0 = v0.copy()
        self._prev_f = residual.copy()
        return v0 + step


class AndersonVDA(VDAPolicy):
    """Anderson acceleration (type II) on the damped fixed-point map.

    Keeps a window of the last ``m`` (V0, F) pairs and extrapolates by a
    least-squares combination that minimizes the residual -- the standard
    accelerator for Picard iterations like VP's outer loop.
    """

    name = "anderson"

    def __init__(self, m: int = 4, beta: float = 1.0, eta0: float = 0.5):
        if m < 1:
            raise ReproError("window m must be >= 1")
        self.m = m
        self.beta = beta
        self.eta0 = eta0
        self._v0s: deque[np.ndarray] = deque(maxlen=m + 1)
        self._fs: deque[np.ndarray] = deque(maxlen=m + 1)

    def reset(self, n_pillars: int | tuple[int, ...]) -> None:
        del n_pillars
        self._v0s.clear()
        self._fs.clear()

    def update(
        self,
        v0: np.ndarray,
        residual: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        # Scale residuals so the fixed-point map is g(v) = v + eta0 * F.
        f = self.eta0 * residual
        self._v0s.append(v0.copy())
        self._fs.append(np.array(f, dtype=float, copy=True))
        k = len(self._fs)
        if k == 1:
            return v0 + f
        # Differences of residuals / iterates over the window; for a
        # (P, S) batch the window axis is inserted after the pillar axis.
        f_mat = np.stack([self._fs[i + 1] - self._fs[i] for i in range(k - 1)], axis=1)
        v_mat = np.stack(
            [self._v0s[i + 1] - self._v0s[i] for i in range(k - 1)], axis=1
        )
        if residual.ndim == 1:
            gamma, *_ = np.linalg.lstsq(f_mat, f, rcond=None)
            return v0 + self.beta * f - (v_mat + self.beta * f_mat) @ gamma
        # Batched: each scenario column extrapolates with its own window
        # (the least-squares problems are independent).  ``active`` lets
        # the caller skip retired columns it will discard anyway.
        v_new = v0 + self.beta * f
        columns = (
            range(residual.shape[1]) if active is None else np.flatnonzero(active)
        )
        for s in columns:
            gamma, *_ = np.linalg.lstsq(f_mat[:, :, s], f[:, s], rcond=None)
            v_new[:, s] -= (v_mat[:, :, s] + self.beta * f_mat[:, :, s]) @ gamma
        return v_new


_POLICIES = {
    "fixed": FixedEtaVDA,
    "adaptive": AdaptiveEtaVDA,
    "secant": PerPillarSecantVDA,
    "anderson": AndersonVDA,
}

#: Every VDA name a solver config takes: the per-column ``"auto"`` rule
#: (:func:`repro.core.kernel.resolve_vda_policy`) or one policy.
VDA_NAMES = ("auto", *_POLICIES)


def make_vda_policy(name: str, **kwargs) -> VDAPolicy:
    """String-keyed factory (``fixed``/``adaptive``/``secant``/``anderson``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ReproError(
            f"unknown VDA policy {name!r}; use one of {sorted(_POLICIES)}"
        ) from None
    return cls(**kwargs)
