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
def ascent_calls(monkeypatch):
    """Record each call of the ascent, ``spectral._ascend``.

    The doubled pair solver runs it once per restart, so an ascended pair
    adds ``cfg.restarts`` calls and a proven one adds none.
    """
    return _count_calls(monkeypatch, "_ascend")


@pytest.fixture
def loop_calls(monkeypatch):
    """Record each call of the single-sheet splitting loop,
    ``spectral._splitting_loop``: one per searched solve, none for a proven
    one."""
    return _count_calls(monkeypatch, "_splitting_loop")


@pytest.fixture
def ladder_defect_calls(monkeypatch):
    """Record each call of ``spectral._ladder_defect``: one per ladder element
    built and checked."""
    return _count_calls(monkeypatch, "_ladder_defect")
