"""ECO sessions: leased base factors, batched candidate ranking, verification.

An :class:`EcoSession` is the user-facing handle of the incremental
re-analysis flow.  Opening one factorizes (or cache-hits) the base
stack's plane system exactly once and *leases* it from the
:class:`~repro.core.planes.PlaneFactorCache` until :meth:`close`; every
subsequent :meth:`evaluate` / :meth:`rank_candidates` call compiles its
candidates to low-rank updates and runs one batched
:class:`~repro.eco.engine.EcoBatchSolver` sweep -- zero new
factorizations, counter-asserted by callers via the
``planes.factorizations`` / ``cache.factorizations`` deltas.

Verification is deliberately *separate* from evaluation: a configurable
sample fraction of candidates is re-solved directly (fresh factors on
the edited stack, the reference path) and compared at
:data:`VERIFY_RTOL`.
Those re-solves legitimately factorize, so the zero-factorization
contract applies to :meth:`evaluate` alone -- benchmarks snapshot the
counters around it and verify afterwards.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import PlaneFactorCache, ReducedPlaneSystem
from repro.eco.edits import EcoCandidate, EcoEdit, compile_candidate
from repro.eco.engine import EcoBatchResult, EcoBatchSolver
from repro.errors import ReproError
from repro.grid.stack3d import PowerGridStack
from repro.scenarios.spec import Scenario, ScenarioSet

#: Ranking metrics: name -> reducer of the ``(S,)`` per-scenario worst
#: IR drops to one scalar figure of merit (lower is better).
_METRICS = {
    "worst_drop": lambda drops: float(drops.max()),
    "mean_drop": lambda drops: float(drops.mean()),
}
#: Largest relative worst-drop error a verified candidate may show
#: against its direct re-solve.
VERIFY_RTOL = 1e-10
#: Seed of the verification sample.
VERIFY_SEED = 0


@dataclass
class EcoConfig(BatchedVPConfig):
    """Knobs of an ECO session: the outer loop's
    (:class:`~repro.core.batch.BatchedVPConfig`, tighter by default)
    plus the ranking ``metric`` and ``verify_fraction``.

    Candidate columns run the exact iteration sequence a direct re-solve
    of the edited stack would, which is what makes :data:`VERIFY_RTOL`
    as tight as 1e-10 meaningful.  ``verify_fraction`` samples that
    direct re-solve on a deterministic subset of candidates (0 disables
    verification).
    """

    outer_tol: float = 1e-6
    max_outer: int = 300
    metric: str = "worst_drop"
    verify_fraction: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.metric not in _METRICS:
            raise ReproError(
                f"unknown ECO metric {self.metric!r}; expected one of "
                f"{sorted(_METRICS)}"
            )
        if not 0.0 <= self.verify_fraction <= 1.0:
            raise ReproError("verify_fraction must be in [0, 1]")


@dataclass
class EcoRow:
    """One evaluated candidate."""

    index: int
    name: str
    candidate: EcoCandidate
    metric: float                 # session metric (lower is better)
    baseline_metric: float        # same metric, unedited stack
    scenario_drops: np.ndarray    # (S,) worst drop per scenario
    rank: int                     # low-rank width of the update
    converged: bool
    outer_iterations: int
    verified: bool = False
    verify_error: float | None = None

    @property
    def improvement(self) -> float:
        """Metric gain over the unedited base (positive = better)."""
        return self.baseline_metric - self.metric


@dataclass
class EcoReport:
    """Ranked outcome of one :meth:`EcoSession.evaluate` sweep."""

    rows: list[EcoRow]
    metric: str
    baseline_metric: float
    scenario_names: list[str]
    result: EcoBatchResult = field(repr=False)
    eval_seconds: float = 0.0
    eval_factorizations: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def ranked(self) -> list[EcoRow]:
        """Rows sorted best-first (ascending metric; diverged rows
        last)."""
        return sorted(
            self.rows, key=lambda r: (not r.converged, r.metric, r.index)
        )

    def best(self) -> EcoRow:
        return self.ranked()[0]

    # -- presentation --------------------------------------------------
    _HEADERS = [
        "#", "candidate", "metric", "improvement", "rank",
        "iters", "converged", "verify_rel_err",
    ]

    def _table_rows(self, top: int | None = None) -> list[list]:
        ranked = self.ranked() if top is None else self.ranked()[:top]
        return [
            [
                pos + 1,
                row.name,
                row.metric,
                row.improvement,
                row.rank,
                row.outer_iterations,
                "yes" if row.converged else "NO",
                row.verify_error if row.verified else None,
            ]
            for pos, row in enumerate(ranked)
        ]

    def table(self, top: int | None = None) -> str:
        from repro.bench.reporting import ascii_table

        return ascii_table(self._HEADERS, self._table_rows(top))

    def summary(self) -> str:
        best = self.best()
        verified = sum(r.verified for r in self.rows)
        lines = [
            f"{len(self.rows)} candidate(s), metric={self.metric}, "
            f"baseline={self.baseline_metric:.6g}",
            f"best: {best.name} metric={best.metric:.6g} "
            f"(improvement {best.improvement:+.3g})",
            f"evaluation: {self.eval_seconds:.3f} s, "
            f"{self.eval_factorizations} new factorization(s)",
        ]
        if verified:
            worst = max(
                r.verify_error for r in self.rows if r.verify_error is not None
            )
            lines.append(
                f"verified {verified}/{len(self.rows)} against direct "
                f"re-solve, worst rel err {worst:.3e}"
            )
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON-ready report body (the ``repro eco --json`` format)."""
        return {
            "metric": self.metric,
            "baseline_metric": self.baseline_metric,
            "scenarios": list(self.scenario_names),
            "eval_seconds": self.eval_seconds,
            "eval_factorizations": self.eval_factorizations,
            "candidates": [
                {
                    "name": row.name,
                    "metric": row.metric,
                    "improvement": row.improvement,
                    "scenario_drops": row.scenario_drops,
                    "rank": row.rank,
                    "outer_iterations": row.outer_iterations,
                    "converged": row.converged,
                    "verified": row.verified,
                    "verify_rel_err": row.verify_error,
                    "edits": [e.to_dict() for e in row.candidate.edits],
                }
                for row in self.ranked()
            ],
        }

    def to_csv(self, path) -> None:
        from repro.bench.reporting import write_csv

        write_csv(path, self._HEADERS, self._table_rows())

    def to_json(self, path) -> None:
        from repro.bench.reporting import write_json

        write_json(path, self.payload())


class EcoSession:
    """Incremental re-analysis session over one leased base stack.

    Parameters
    ----------
    stack:
        The signed-off base grid.  Its plane factors are computed (or
        cache-hit) once and leased until :meth:`close`.
    scenarios:
        Operating scenarios every candidate is evaluated under; defaults
        to the single :meth:`~repro.scenarios.spec.Scenario.nominal`
        point.  ``plane_scale`` scenarios are rejected (fold a global
        conductance scaling into the base stack instead).
    config:
        :class:`EcoConfig`; defaults are tight enough for 1e-10 parity.
    cache:
        Optional shared :class:`~repro.core.planes.PlaneFactorCache`.
        A private single-entry cache is created when omitted.
    """

    def __init__(
        self,
        stack: PowerGridStack,
        *,
        scenarios=None,
        config: EcoConfig | None = None,
        cache: PlaneFactorCache | None = None,
    ):
        self.stack = stack
        self.config = config or EcoConfig()
        self.scenarios = ScenarioSet.ensure(
            scenarios if scenarios is not None else Scenario.nominal()
        )
        if np.any(
            self.scenarios.plane_scale_matrix(stack.n_tiers) != 1.0
        ):
            raise ReproError(
                "ECO sessions do not support plane_scale scenarios; "
                "apply the scaling to the base stack instead"
            )
        self.cache = cache if cache is not None else PlaneFactorCache()
        self._hold = ExitStack()
        self.planes: ReducedPlaneSystem = self._hold.enter_context(
            self.cache.lease(stack)
        )
        self._closed = False
        self._baseline: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ReproError("ECO session is closed")

    def baseline_drops(self) -> np.ndarray:
        """``(S,)`` worst IR drops of the *unedited* stack (computed once
        on the leased factors, cached)."""
        self._check_open()
        if self._baseline is None:
            solver = BatchedVPSolver(
                self.stack,
                self.scenarios,
                self.config,
                planes=self.planes,
            )
            self._baseline = solver.solve().worst_ir_drop()
        return self._baseline

    @staticmethod
    def _as_candidates(items) -> list[EcoCandidate]:
        candidates = []
        for k, item in enumerate(items):
            if isinstance(item, EcoCandidate):
                candidates.append(item)
            elif isinstance(item, EcoEdit):
                candidates.append(
                    EcoCandidate(name=f"{item.kind}-{k}", edits=(item,))
                )
            else:
                raise ReproError(
                    f"expected EcoCandidate or EcoEdit, got {type(item).__name__}"
                )
        if not candidates:
            raise ReproError("no candidates to evaluate")
        return candidates

    # ------------------------------------------------------------------
    def evaluate(self, candidates) -> EcoReport:
        """Solve every candidate under every scenario incrementally.

        One batched SMW sweep over ``len(candidates) * S`` columns
        against the leased base factors -- no factorization happens in
        here, which callers can counter-assert via the
        ``planes.factorizations`` obs delta across the call.
        """
        self._check_open()
        candidates = self._as_candidates(candidates)
        baseline = self.baseline_drops()
        metric_fn = _METRICS[self.config.metric]
        baseline_metric = metric_fn(baseline)
        factorizations0 = self.cache.factorizations

        compiled = [compile_candidate(self.stack, c) for c in candidates]
        engine = EcoBatchSolver(
            self.stack,
            self.planes,
            self.scenarios,
            compiled,
            self.config,
        )
        result = engine.solve()
        drops = result.worst_ir_drop()          # (n_cand, S)
        cand_converged = result.candidate_converged()
        n_scen = len(self.scenarios)
        rows = []
        for k, (cand, comp) in enumerate(zip(candidates, compiled)):
            cols = slice(k * n_scen, (k + 1) * n_scen)
            rows.append(
                EcoRow(
                    index=k,
                    name=cand.name,
                    candidate=cand,
                    metric=metric_fn(drops[k]),
                    baseline_metric=baseline_metric,
                    scenario_drops=drops[k],
                    rank=comp.rank,
                    converged=bool(cand_converged[k]),
                    outer_iterations=int(result.outer_iterations[cols].max()),
                )
            )
        report = EcoReport(
            rows=rows,
            metric=self.config.metric,
            baseline_metric=baseline_metric,
            scenario_names=self.scenarios.names,
            result=result,
            eval_seconds=(
                result.stats.setup_seconds + result.stats.solve_seconds
            ),
            eval_factorizations=(
                self.cache.factorizations - factorizations0
            ),
        )
        if self.config.verify_fraction > 0.0:
            self.verify(report)
        return report

    def rank_candidates(
        self, edits, metric: str | None = None, verify_fraction: float | None = None
    ) -> EcoReport:
        """Evaluate, verify (per config), and rank a candidate list.

        ``metric`` / ``verify_fraction`` override the session config for
        this call only.
        """
        self._check_open()
        if metric is not None and metric not in _METRICS:
            raise ReproError(
                f"unknown ECO metric {metric!r}; expected one of "
                f"{sorted(_METRICS)}"
            )
        config = self.config
        restore = (config.metric, config.verify_fraction)
        try:
            if metric is not None:
                config.metric = metric
            if verify_fraction is not None:
                config.verify_fraction = verify_fraction
            return self.evaluate(edits)
        finally:
            config.metric, config.verify_fraction = restore

    # ------------------------------------------------------------------
    def solve_reference(self, candidate: EcoCandidate) -> np.ndarray:
        """Direct re-solve of one candidate (fresh factors on the edited
        stack): the ``(S,)`` reference worst-drop vector the incremental
        result is verified against."""
        self._check_open()
        solver = BatchedVPSolver(
            candidate.apply(self.stack),
            self.scenarios,
            self.config,
        )
        return solver.solve().worst_ir_drop()

    def verify(
        self,
        report: EcoReport,
        fraction: float | None = None,
        seed: int | None = None,
    ) -> int:
        """Spot-check a deterministic sample of candidates against direct
        re-solve; annotate the sampled rows in place.

        Returns the number of candidates verified.  Raises ``ReproError``
        when any sampled candidate misses :data:`VERIFY_RTOL`.
        """
        self._check_open()
        fraction = (
            self.config.verify_fraction if fraction is None else fraction
        )
        if fraction <= 0.0 or not report.rows:
            return 0
        seed = VERIFY_SEED if seed is None else seed
        n = len(report.rows)
        count = max(1, int(round(fraction * n)))
        rng = np.random.default_rng(seed)
        picks = rng.choice(n, size=min(count, n), replace=False)
        failures = []
        for k in sorted(int(p) for p in picks):
            row = report.rows[k]
            reference = self.solve_reference(row.candidate)
            scale = max(float(np.abs(reference).max()), 1e-30)
            rel = float(
                np.abs(row.scenario_drops - reference).max() / scale
            )
            row.verified = True
            row.verify_error = rel
            obs.add("eco.verifications")
            if rel > VERIFY_RTOL:
                failures.append((row.name, rel))
        if failures:
            worst = max(rel for _, rel in failures)
            raise ReproError(
                f"{len(failures)} ECO candidate(s) failed verification "
                f"(worst rel err {worst:.3e} > rtol {VERIFY_RTOL:g}): "
                f"{[name for name, _ in failures][:5]}"
            )
        return len(picks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's lease on the base factors (the entry
        stays cached, LRU-evictable once no other holder keeps it)."""
        self._closed = True
        self._hold.close()

    def __enter__(self) -> "EcoSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = ["EcoConfig", "EcoReport", "EcoRow", "EcoSession"]
