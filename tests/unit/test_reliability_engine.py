"""The Monte Carlo event loop: determinism, pricing, and invariants."""

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.reliability import Hierarchy, ReliabilityConfig, ReliabilityEngine
from repro.reliability.report import accelerated_config
from repro.repair.plan import scheme


def quick_config(**overrides):
    base = dict(
        code="rs(4,2)",
        scheme="ppr",
        num_stripes=200,
        trials=2,
        horizon_years=2.0,
        hierarchy=Hierarchy(
            racks=6, machines_per_rack=1, disks_per_machine=2,
        ),
        disk_lifetime="exp:60d",
        seed=11,
    )
    base.update(overrides)
    return ReliabilityConfig(**base)


def test_same_seed_same_everything():
    a = ReliabilityEngine(quick_config()).run()
    b = ReliabilityEngine(quick_config()).run()
    assert a.summary_rows() == b.summary_rows()
    assert [t.__dict__ for t in a.trials] == [t.__dict__ for t in b.trials]


def test_different_seed_differs():
    a = ReliabilityEngine(quick_config(seed=1)).run()
    b = ReliabilityEngine(quick_config(seed=2)).run()
    assert [t.disk_failures for t in a.trials] != [
        t.disk_failures for t in b.trials
    ]


def test_trials_are_independent_of_count():
    """Adding trials must not perturb earlier ones (spawned seeds)."""
    two = ReliabilityEngine(quick_config(trials=2)).run()
    three = ReliabilityEngine(quick_config(trials=3)).run()
    assert [t.__dict__ for t in two.trials] == [
        t.__dict__ for t in three.trials[:2]
    ]


def test_failures_happen_and_are_repaired():
    report = ReliabilityEngine(quick_config()).run()
    failures = sum(t.disk_failures for t in report.trials)
    repairs = sum(t.repairs_completed for t in report.trials)
    assert failures > 0
    # Nearly every failure is repaired within the horizon (a tail can be
    # in flight when the clock stops).
    assert repairs > 0.8 * failures
    assert all(t.hours == 2.0 * 8760.0 for t in report.trials)


def test_exposure_accrues_with_failures():
    report = ReliabilityEngine(quick_config()).run()
    assert report.exposure_chunk_hours_per_stripe_year() > 0


def test_scheme_pricing_orders_repair_time():
    trad = ReliabilityEngine(quick_config(scheme="traditional"))
    ppr = ReliabilityEngine(quick_config(scheme="ppr"))
    mppr = ReliabilityEngine(quick_config(scheme="mppr"))
    assert ppr.per_chunk_repair_hours() < trad.per_chunk_repair_hours()
    assert mppr.per_chunk_repair_hours() == ppr.per_chunk_repair_hours()
    # PPR/m-PPR differ through queue contention, not per-repair time.
    assert mppr.contention < ppr.contention < trad.contention
    assert trad.contention == scheme("traditional").contention


def test_per_chunk_override_wins():
    engine = ReliabilityEngine(quick_config(per_chunk_repair_hours=7.5))
    assert engine.per_chunk_repair_hours() == 7.5


def test_until_loss_stops_at_first_loss():
    config = quick_config(
        code="rs(2,1)",
        hierarchy=Hierarchy(racks=3, machines_per_rack=1,
                            disks_per_machine=1),
        num_stripes=1,
        trials=5,
        disk_lifetime="exp:100h",
        per_chunk_repair_hours=10.0,
        repair_jitter="exponential",
        detection_delay_hours=0.0,
        machine_transient_rate_per_year=0.0,
        burst_rate_per_rack_per_year=0.0,
        horizon_years=1e5,
        until_loss=True,
    )
    report = ReliabilityEngine(config).run()
    assert report.until_loss
    for trial in report.trials:
        assert trial.losses >= 1
        assert trial.first_loss_hours is not None
        assert trial.hours == trial.first_loss_hours


def test_bursts_are_counted_and_cause_unavailability():
    config = quick_config(
        burst_rate_per_rack_per_year=20.0,
        burst_downtime="exp:5h",
        disk_lifetime="exp:100y",  # isolate the burst process
        machine_transient_rate_per_year=0.0,
    )
    report = ReliabilityEngine(config).run()
    assert sum(t.bursts for t in report.trials) > 0
    # One rack down takes out at most one chunk per stripe (placement is
    # rack-disjoint), so unavailability needs *overlapping* bursts;
    # crank the rate and downtime until stripes cross m:
    config2 = quick_config(
        burst_rate_per_rack_per_year=200.0,
        burst_downtime="exp:48h",
        disk_lifetime="exp:100y",
        machine_transient_rate_per_year=0.0,
    )
    report2 = ReliabilityEngine(config2).run()
    assert sum(t.unavailable_stripe_hours for t in report2.trials) > 0
    assert report2.availability_nines() < 12.0


def test_obs_metrics_exported():
    obs.registry().reset()
    try:
        report = ReliabilityEngine(quick_config()).run()
        snapshot = obs.registry().snapshot()
        names = {record["name"] for record in snapshot}
        assert "reliability.trials" in names
        assert "reliability.disk_failures" in names
        trials = next(
            r for r in snapshot if r["name"] == "reliability.trials"
        )
        assert trials["value"] == len(report.trials)
    finally:
        obs.registry().reset()


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(scheme="carousel"))
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(repair_jitter="uniform"))
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(trials=0))
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(repair_slots=0))
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(horizon_years=0.0))
    with pytest.raises(ConfigurationError):
        ReliabilityEngine(quick_config(code="rep(1)"))  # no parity


def test_kwarg_override_constructor():
    engine = ReliabilityEngine(quick_config(), trials=5)
    assert engine.config.trials == 5


def test_accelerated_config_is_bandwidth_limited():
    config = accelerated_config("rs(6,3)", "ppr", n=9)
    assert config.repair_slots == 2
    report = ReliabilityEngine(config).run()
    # The point of the stress regime: losses are actually observed.
    assert report.total_losses > 0
