"""Adaptive precision-targeted Monte Carlo: estimators, sweep, parity."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, TrialExecutionError
from repro.experiments import table2_attack_awgn
from repro.experiments.adaptive import (
    Z_95,
    AdaptiveConfig,
    AdaptiveSweep,
    MeanEstimator,
    RateEstimator,
    increment,
    wilson_interval,
)
from repro.experiments.engine import MonteCarloEngine
from repro.telemetry import get_telemetry
from repro.telemetry.events import MemoryEventSink, get_event_stream


def _coin_trial(context, args, rng):
    (p,) = args
    return bool(rng.random() < p)


def _gauss_trial(context, args, rng):
    mean, sigma = args
    return float(mean + sigma * rng.standard_normal())


class TestIntervalMath:
    def test_z_is_the_two_sided_95_percent_quantile(self):
        assert 0.5 * (1.0 + math.erf(Z_95 / math.sqrt(2.0))) == (
            pytest.approx(0.975, abs=1e-12)
        )
        # The exact value the sweeps' stopping points were pinned with.
        assert Z_95 == 1.9599639845401384

    def test_wilson_interval_brackets_the_estimate(self):
        for successes, trials in ((0, 10), (5, 10), (10, 10), (1, 1000)):
            low, high = wilson_interval(successes, trials)
            assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_wilson_interval_never_collapses_at_the_boundary(self):
        low, high = wilson_interval(20, 20)
        assert high - low > 0.0
        low, high = wilson_interval(0, 20)
        assert high - low > 0.0

    def test_wilson_interval_empty_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_interval_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 3)


class TestEstimators:
    def test_rate_estimator_counts_falsy_rows_as_failures(self):
        estimator = RateEstimator()
        estimator.add([True, False, None, 1, 0])
        assert estimator.observations == 5
        assert estimator.successes == 2

    def test_rate_converges_symmetrically_for_p_and_one_minus_p(self):
        high = RateEstimator()
        high.add([True] * 30)
        low = RateEstimator()
        low.add([False] * 30)
        assert high.converged(0.1) == low.converged(0.1)

    def test_rate_estimator_unconverged_while_empty(self):
        estimator = RateEstimator()
        assert not estimator.converged(0.5)
        assert estimator.half_width() == float("inf")

    def test_mean_estimator_matches_numpy_welford(self):
        rng = np.random.default_rng(0)
        values = list(rng.normal(3.0, 0.5, 100))
        estimator = MeanEstimator()
        estimator.add(values)
        assert estimator.estimate == pytest.approx(np.mean(values), rel=1e-12)
        assert estimator.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-9
        )

    def test_mean_estimator_skips_none_rows(self):
        estimator = MeanEstimator()
        estimator.add([1.0, None, 3.0, None])
        assert estimator.count == 2
        assert estimator.estimate == pytest.approx(2.0)

    def test_mean_estimator_zero_variance_converges(self):
        estimator = MeanEstimator()
        estimator.add([2.5] * 5)
        assert estimator.converged(0.01)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(rel_precision=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveConfig(max_trials=0)

    def test_config_chunk_and_cap_resolution(self):
        config = AdaptiveConfig()
        assert increment(100) == 12
        assert increment(20) == 8
        assert increment(4) == 4
        assert config.resolve_cap(100) == 400
        assert AdaptiveConfig(max_trials=50).resolve_cap(20) == 50
        # The cap never undercuts the base budget.
        assert AdaptiveConfig(max_trials=5).resolve_cap(20) == 20


class TestAdaptiveSweep:
    def _session(self):
        return MonteCarloEngine().session({})

    def test_deterministic_point_converges_at_min_trials(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig())
            state = sweep.point(
                _coin_trial, 100, RateEstimator(), rng=0,
                static_args=(1.0,), key="sure",
            )
            sweep.settle()
        outcome = state.outcome()
        assert outcome.converged
        assert outcome.trials_used < 100
        assert outcome.estimate == 1.0
        assert sweep.trials_saved == 100 - outcome.trials_used

    def test_boundary_point_receives_reallocated_budget(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig(rel_precision=0.05))
            easy = sweep.point(
                _coin_trial, 60, RateEstimator(), rng=0,
                static_args=(1.0,), key="easy",
            )
            hard = sweep.point(
                _coin_trial, 60, RateEstimator(), rng=1,
                static_args=(0.5,), key="hard",
            )
            sweep.settle()
        assert easy.outcome().trials_used < 60
        # The hard point spends beyond its own base out of the savings.
        assert hard.outcome().trials_used > 60
        assert sweep.trials_executed <= sweep.trials_base

    def test_cap_bounds_reallocation(self):
        with self._session() as session:
            config = AdaptiveConfig(rel_precision=0.05, max_trials=70)
            sweep = AdaptiveSweep(session, config)
            easy = sweep.point(
                _coin_trial, 60, RateEstimator(), rng=0,
                static_args=(1.0,), key="easy",
            )
            hard = sweep.point(
                _coin_trial, 60, RateEstimator(), rng=1,
                static_args=(0.5,), key="hard",
            )
            sweep.settle()
        assert hard.outcome().trials_used <= 70
        assert hard.outcome().capped
        assert not hard.outcome().converged
        assert easy.outcome().converged
        assert easy.outcome().trials_used < 60

    def test_mean_point_converges(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig())
            state = sweep.point(
                _gauss_trial, 400, MeanEstimator(), rng=0,
                static_args=(10.0, 0.5), key="gauss",
            )
            sweep.settle()
        outcome = state.outcome()
        assert outcome.converged
        assert outcome.trials_used < 400
        assert outcome.estimate == pytest.approx(10.0, abs=0.5)
        half = (outcome.ci_high - outcome.ci_low) / 2.0
        assert half <= 0.1 * abs(outcome.estimate) + 1e-12

    def test_outcome_before_settle_raises(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig())
            # A fair coin cannot reach 10 % precision in 20 trials, and
            # its cap (80) is above its budget: not final until settle.
            state = sweep.point(
                _coin_trial, 20, RateEstimator(), rng=0,
                static_args=(0.5,), key="early",
            )
            assert not state.converged
            with pytest.raises(ConfigurationError):
                state.outcome()
            sweep.settle()
            assert state.outcome().trials_used == 20

    def test_converged_point_is_final_before_settle(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig())
            state = sweep.point(
                _coin_trial, 50, RateEstimator(), rng=0,
                static_args=(1.0,), key="sure",
            )
            before = state.outcome()
            sweep.settle()
        assert before.converged
        assert state.outcome().trials_used == before.trials_used

    def test_fixed_sweep_runs_each_budget_in_one_call(self):
        calls = []

        class Session:
            def run(self, trial, count, rng=None, static_args=()):
                calls.append(count)
                return [True] * count

            def run_until(self, *args):
                raise AssertionError("a fixed sweep never runs increments")

        sweep = AdaptiveSweep(Session(), None)
        state = sweep.point(_coin_trial, 30, RateEstimator(), rng=0)
        assert calls == [30]
        assert state.final and not state.converged
        assert state.outcome().trials_used == 30
        sweep.settle()
        assert sweep.trials_saved == 0

    def test_point_after_settle_raises(self):
        with self._session() as session:
            sweep = AdaptiveSweep(session, AdaptiveConfig())
            sweep.settle()
            with pytest.raises(ConfigurationError):
                sweep.point(_coin_trial, 20, RateEstimator(), rng=0,
                            static_args=(1.0,))

    def _telemetry_of(self, body):
        """Run ``body``; return its events and telemetry counters."""
        stream = get_event_stream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            body()
            return sink.records, telemetry.registry.snapshot()["counters"]
        finally:
            stream.remove_sink(sink)
            stream.disable()
            telemetry.disable()
            telemetry.reset()

    def test_settle_emits_point_converged_events_and_counters(self):
        def body():
            with self._session() as session:
                sweep = AdaptiveSweep(
                    session, AdaptiveConfig(), experiment="unit"
                )
                sweep.point(
                    _coin_trial, 50, RateEstimator(), rng=0,
                    static_args=(1.0,), key="p1",
                )
                sweep.settle()

        records, counters = self._telemetry_of(body)
        events = [e for e in records if e["event"] == "point_converged"]
        assert len(events) == 1
        assert events[0]["experiment"] == "unit"
        assert events[0]["point"] == "p1"
        assert events[0]["trials_used"] > 0
        assert events[0]["trials_saved"] > 0
        assert events[0]["converged"] is True
        assert counters["engine.trials_saved"] == events[0]["trials_saved"]
        assert "engine.points_capped" not in counters

    def test_points_capped_counts_only_points_at_their_cap(self):
        def body():
            with self._session() as session:
                config = AdaptiveConfig(rel_precision=0.05, max_trials=70)
                sweep = AdaptiveSweep(session, config)
                sweep.point(_coin_trial, 60, RateEstimator(), rng=0,
                            static_args=(1.0,), key="easy")
                sweep.point(_coin_trial, 60, RateEstimator(), rng=1,
                            static_args=(0.5,), key="hard")
                sweep.settle()

        _, counters = self._telemetry_of(body)
        assert counters["engine.points_capped"] == 1

    def test_unconverged_points_below_their_cap_are_not_capped(self):
        # Neither point converges at its 20-trial budget, so nothing is
        # saved and both stop at 20 of their 80-trial cap.
        results = []

        def body():
            results.append(table2_attack_awgn.run(
                snrs_db=(7, 9), trials=20, rng=1, adaptive=True,
                include_authentic=False, screen_defense=False,
            ))

        records, counters = self._telemetry_of(body)
        assert [row["trials_used"] for row in results[0].rows] == [20, 20]
        settled = [e for e in records if e["event"] == "point_converged"]
        assert [e["converged"] for e in settled] == [False, False]
        assert [e["capped"] for e in settled] == [False, False]
        assert "engine.points_capped" not in counters

    def test_fixed_run_reports_no_adaptive_telemetry(self):
        def body():
            table2_attack_awgn.run(
                snrs_db=(15, 17), trials=6, rng=1,
                include_authentic=False, screen_defense=False,
            )

        records, counters = self._telemetry_of(body)
        kinds = [e["event"] for e in records]
        assert "point_converged" not in kinds
        assert kinds.count("point_finished") == 2
        assert "engine.trials_saved" not in counters
        assert "engine.points_capped" not in counters


class TestAdaptiveFixedParity:
    """The issue's core guarantee: adaptive prefixes are bit-identical."""

    def test_run_until_prefix_matches_fixed_run(self):
        engine = MonteCarloEngine()
        with engine.session({}) as session:
            fixed = session.run(
                _gauss_trial, 40, rng=7, static_args=(0.0, 1.0)
            )
        with engine.session({}) as session:
            incremental = session.run_until(
                _gauss_trial, rng=7, static_args=(0.0, 1.0)
            )
            for step in (5, 11, 3, 21):
                incremental.extend(step)
        assert incremental.results == fixed

    def test_run_until_prefix_matches_for_any_chunking(self):
        engine = MonteCarloEngine()
        with engine.session({}) as session:
            fixed = session.run(
                _coin_trial, 30, rng=11, static_args=(0.5,)
            )
        for chunks in ((30,), (10, 10, 10), (1,) * 30, (16, 14)):
            with engine.session({}) as session:
                incremental = session.run_until(
                    _coin_trial, rng=11, static_args=(0.5,)
                )
                for step in chunks:
                    incremental.extend(step)
            assert incremental.results == fixed

    def test_adaptive_table2_prefix_matches_fixed_outcomes(self):
        """The trials adaptive table2 executes are the fixed run's prefix."""
        fixed = table2_attack_awgn.run(
            snrs_db=(17,), trials=24, include_authentic=False,
            screen_defense=False, rng=5,
        )
        adaptive = table2_attack_awgn.run(
            snrs_db=(17,), trials=24, include_authentic=False,
            screen_defense=False, rng=5, adaptive=True,
        )
        row = adaptive.rows[0]
        assert row["trials_used"] < 24
        # At 17 dB every delivery succeeds, so the prefix rate matches
        # the fixed rate exactly and the CI half-width meets 10%.
        assert row["success_rate"] == fixed.rows[0]["success_rate"]
        assert (row["ci_high"] - row["ci_low"]) / 2.0 <= 0.1

    def test_adaptive_full_budget_reproduces_fixed_rates(self):
        """With convergence unreachable, adaptive spends the exact fixed
        budget and lands on identical rates (same seeds, same trials)."""
        fixed = table2_attack_awgn.run(
            snrs_db=(13, 17), trials=12, include_authentic=True,
            screen_defense=True, rng=9,
        )
        adaptive = table2_attack_awgn.run(
            snrs_db=(13, 17), trials=12, include_authentic=True,
            screen_defense=True, rng=9, adaptive=True,
            rel_precision=0.001, max_trials=12,
        )
        for fixed_row, adaptive_row in zip(fixed.rows, adaptive.rows):
            assert adaptive_row["trials_used"] == 12
            for column in ("success_rate", "authentic_success_rate",
                           "detected_rate"):
                if column in fixed_row:
                    assert adaptive_row[column] == fixed_row[column]

    def test_fixed_mode_rows_unchanged_by_the_adaptive_plumbing(self):
        """Fixed-budget runs stay bit-identical across the refactor:
        serial, chunked, and parallel paths all agree."""
        baseline = table2_attack_awgn.run(
            snrs_db=(15,), trials=10, include_authentic=False,
            screen_defense=False, rng=4,
        )
        chunked = table2_attack_awgn.run(
            snrs_db=(15,), trials=10, include_authentic=False,
            screen_defense=False, rng=4, chunk_size=3,
        )
        assert baseline.rows == chunked.rows


class TestAdaptiveCheckpoint:
    PARAMS = dict(
        snrs_db=(15, 17), trials=16, include_authentic=False,
        screen_defense=False,
    )

    def test_adaptive_resume_honors_trials_used(self, tmp_path):
        first = table2_attack_awgn.run(
            rng=6, adaptive=True, checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            resumed = table2_attack_awgn.run(
                rng=6, adaptive=True, checkpoint_dir=str(tmp_path),
                resume=True, **self.PARAMS
            )
            counters = telemetry.registry.snapshot()["counters"]
            assert counters.get("engine.trials", 0) == 0
        finally:
            telemetry.disable()
            telemetry.reset()
        assert resumed.rows == first.rows
        assert all("trials_used" in row for row in resumed.rows)

    def test_killed_adaptive_sweep_resumes_to_the_fresh_rows(
        self, tmp_path, seed_fault
    ):
        # 17 dB converges in pass 1 and is saved before settle; a trial
        # raising on seeds divisible by 11 then kills the run inside
        # 13 dB's pass 1.  On
        # resume, 17 dB's unspent budget must rejoin the pool, or 7 dB
        # (which needs reallocated trials) would get fewer than before.
        params = dict(
            snrs_db=(17, 7, 13), trials=20, include_authentic=False,
            screen_defense=False, adaptive=True,
        )
        with seed_fault(11), pytest.raises(TrialExecutionError):
            table2_attack_awgn.run(
                rng=1, checkpoint_dir=str(tmp_path), **params
            )
        saved = sorted(p.name for p in (tmp_path / "table2").glob("point_*"))
        assert saved == ["point_snr17.json"]

        fresh = table2_attack_awgn.run(rng=1, **params)
        resumed = table2_attack_awgn.run(
            rng=1, checkpoint_dir=str(tmp_path), resume=True, **params
        )
        assert fresh.rows[1]["trials_used"] > 20
        assert resumed.rows == fresh.rows

    def test_adaptive_and_fixed_checkpoints_do_not_mix(self, tmp_path):
        table2_attack_awgn.run(
            rng=6, checkpoint_dir=str(tmp_path), **self.PARAMS
        )
        with pytest.raises(ConfigurationError):
            table2_attack_awgn.run(
                rng=6, adaptive=True, checkpoint_dir=str(tmp_path),
                resume=True, **self.PARAMS
            )
