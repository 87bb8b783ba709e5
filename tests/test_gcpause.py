"""The collector pause around certificate building and reading."""

import gc

import pytest

import kchi.immersion
from kchi.construct import construct_immersion
from kchi.gcpause import gc_paused
from kchi.generators import emit_certificate, parse_certificate
from kchi.immersion import chi_alpha2, verify_immersion

from helpers import cycle


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


@gc_paused
def state():
    return gc.isenabled()


@gc_paused
def nested():
    inner = state()
    return inner, gc.isenabled()


@gc_paused
def fails():
    raise ValueError(gc.isenabled())


def test_paused_inside_and_restored_after_return(collector_on):
    assert state() is False
    assert gc.isenabled()


def test_restored_after_a_raise(collector_on):
    with pytest.raises(ValueError, match="False"):
        fails()
    assert gc.isenabled()


def test_nested_calls_keep_it_off_until_the_outermost_returns(collector_on):
    assert nested() == (False, False)
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off(collector_on):
    gc.disable()
    assert state() is False
    assert not gc.isenabled()
    with pytest.raises(ValueError):
        fails()
    assert not gc.isenabled()


@pytest.mark.parametrize(
    "fn", [construct_immersion, emit_certificate, parse_certificate, chi_alpha2, verify_immersion]
)
def test_certificate_entry_points_are_paused(fn):
    assert fn.__wrapped__.__name__ == fn.__name__


def test_the_blossom_runs_with_the_collector_off(collector_on, monkeypatch):
    seen = []
    real = kchi.immersion.maximum_matching

    def spy(*args):
        seen.append(gc.isenabled())
        return real(*args)

    monkeypatch.setattr(kchi.immersion, "maximum_matching", spy)
    assert chi_alpha2(cycle(5))[0] == 3
    assert seen == [False] and gc.isenabled()
