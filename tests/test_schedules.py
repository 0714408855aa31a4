"""Exploration-weight schedule tests."""

import pytest

from exval.schedules import (BudgetStop, ConstantKappa, DecayKappa,
                             StopResume, TargetStop, make_schedule)


def latches(returns, target, n_eval):
    """Whether one note_eval of ``returns`` latches a fresh TargetStop."""
    sched = TargetStop(1.0, target=target, n_eval=n_eval)
    sched.note_eval(returns, episode=0)
    return sched.latched


def test_target_stop_strictly_greater_and_tail_only():
    assert latches([0.2, 0.2, 0.2], 0.1, 3)
    assert not latches([0.2, 0.1, 0.2], 0.1, 3)   # equal is not enough
    assert not latches([0.0, 0.2, 0.2], 0.1, 3)
    assert latches([0.0, 0.2, 0.2], 0.1, 2)       # only the tail counts


def test_target_stop_short_history_and_validation():
    assert not latches([], 0.1, 1)
    assert not latches([5.0, 5.0], 0.1, 3)
    for n_eval in (0, -2):
        with pytest.raises(ValueError, match="n_eval must be >= 1"):
            TargetStop(1.0, n_eval=n_eval)
    with pytest.raises(ValueError, match="n_eval must be a whole number"):
        TargetStop(1.0, n_eval=2.5)


def test_target_stop_pass_count_carries_across_calls():
    sched = TargetStop(1.0, target=0.0, n_eval=4)
    sched.note_eval([-1.0, 1.0], episode=0)
    assert sched.passes == 1
    sched.note_eval([1.0, 1.0], episode=1)
    assert sched.passes == 3 and not sched.latched
    sched.note_eval([1.0], episode=2)
    assert sched.passes == 4 and sched.latched_at == 2


def test_schedule_params_checked_when_built():
    with pytest.raises(ValueError, match="c must be >= 0"):
        DecayKappa(-1.0)
    assert DecayKappa(0.0).kappa_at(10) == 1.0
    for bad in (2.7, True, "3"):
        with pytest.raises(ValueError, match="budget must be a whole"):
            BudgetStop(1.0, budget=bad)
    assert BudgetStop(1.0, budget=3.0).budget == 3
    with pytest.raises(ValueError, match="stop_at must be a whole"):
        StopResume(1.0, stop_at=1.5, resume_at=4)
    with pytest.raises(ValueError, match="resume_at must be a whole"):
        StopResume(1.0, stop_at=1, resume_at=4.5)


def test_constant_schedule():
    sched = ConstantKappa(0.7)
    assert not sched.wants_eval
    for ep in (0, 1, 10, 10_000):
        assert sched.kappa_at(ep) == 0.7
        assert not sched.frozen_at(ep)


@pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 1e5])
def test_decay_starts_at_one(c):
    assert DecayKappa(c).kappa_at(0) == 1.0


def test_decay_formula_and_monotonicity():
    sched = DecayKappa(0.5)
    assert sched.kappa_at(1) == pytest.approx(1.0 / 1.5)
    assert sched.kappa_at(4) == pytest.approx(1.0 / 3.0)
    ks = [sched.kappa_at(ep) for ep in range(50)]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert not sched.frozen_at(30)


def test_budget_stop_cutoff():
    sched = BudgetStop(2.0, budget=5)
    for ep in range(5):
        assert sched.kappa_at(ep) == 2.0
        assert not sched.frozen_at(ep)
    for ep in (5, 6, 500):
        assert sched.kappa_at(ep) == 0.0
        assert sched.frozen_at(ep)


def test_stop_resume_window():
    sched = StopResume(1.5, stop_at=3, resume_at=6)
    expect = [1.5, 1.5, 1.5, 0.0, 0.0, 0.0, 1.5, 1.5]
    assert [sched.kappa_at(ep) for ep in range(8)] == expect
    assert [sched.frozen_at(ep) for ep in range(8)] == \
        [k == 0.0 for k in expect]
    with pytest.raises(ValueError):
        StopResume(1.0, stop_at=5, resume_at=4)


def test_target_stop_latches_permanently():
    sched = TargetStop(1.0, target=0.1, n_eval=3)
    assert sched.wants_eval
    assert sched.kappa_at(0) == 1.0
    sched.note_eval([0.0, 0.0, 0.0], episode=0)
    assert not sched.latched
    # the pass count carries across calls; three in a row above target latch
    sched.note_eval([0.5, 0.5], episode=1)
    assert not sched.latched
    sched.note_eval([0.5], episode=2)
    assert sched.latched
    assert sched.latched_at == 2
    assert sched.kappa_at(3) == 0.0
    # nothing unlatches it, and learning stays on (frozen is never True)
    sched.note_eval([-10.0, -10.0, -10.0], episode=4)
    assert sched.latched
    assert sched.kappa_at(100) == 0.0
    assert not sched.frozen_at(100)


def test_target_stop_needs_consecutive_run():
    sched = TargetStop(1.0, target=0.0, n_eval=2)
    sched.note_eval([1.0, -1.0, 1.0], episode=0)
    assert not sched.latched
    sched.note_eval([1.0], episode=1)
    assert sched.latched


def test_make_schedule_dispatch():
    assert isinstance(make_schedule("constant", kappa0=1.0), ConstantKappa)
    assert isinstance(make_schedule("decay", c=0.1), DecayKappa)
    assert isinstance(make_schedule("budget_stop", kappa0=1.0, budget=3),
                      BudgetStop)
    assert isinstance(
        make_schedule("stop_resume", kappa0=1.0, stop_at=2, resume_at=4),
        StopResume)
    assert isinstance(make_schedule("target_stop", kappa0=1.0), TargetStop)
    with pytest.raises(ValueError):
        make_schedule("anneal")
