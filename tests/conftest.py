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
    """Record each call of ``spectral.<name>``, or else ``doubling.<name>``,
    wherever a module of the package imported it."""
    from moyalmetric import doubling, spectral

    calls = []
    real = getattr(spectral, name, None) or getattr(doubling, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (spectral, doubling):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
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


@pytest.fixture
def doubled_seminorm_calls(monkeypatch):
    """Record each call of ``doubling._doubled_seminorm``, the full SVD of the
    chiral block: one per opposite-sheet report that carries it."""
    return _count_calls(monkeypatch, "_doubled_seminorm")
