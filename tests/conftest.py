import pytest
from hypothesis import HealthCheck, settings

from moyalmetric import make_context

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ctx16():
    return make_context(16, 1.0, 1e-10)


@pytest.fixture(scope="session")
def ctx32():
    return make_context(32, 1.0, 1e-10)


@pytest.fixture(scope="session")
def ctx48():
    return make_context(48, 1.0, 1e-10)


@pytest.fixture(scope="session")
def ctx64():
    return make_context(64, 1.0, 1e-10)


def _count_calls(monkeypatch, name):
    from moyalmetric import spectral

    calls = []
    real = getattr(spectral, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectral, name, counted)
    return calls


@pytest.fixture
def loop_calls(monkeypatch):
    """Record each call of the splitting loop, ``spectral._splitting_loop``:
    one per searched solve on either sheet, none for a proven one.  A call's
    first argument is the sheet, whose pairing ``g`` is a stacked pair on
    two sheets."""
    return _count_calls(monkeypatch, "_splitting_loop")


@pytest.fixture
def ladder_defect_calls(monkeypatch):
    """Record each call of ``spectral._ladder_defect``: one per ladder element
    built and checked."""
    return _count_calls(monkeypatch, "_ladder_defect")
