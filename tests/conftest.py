"""Make the package in src/ importable by the subprocesses some tests start,
empty the oracle's memo of passed certificates around each test, and
provide the `count_calls` and `tamper_lanes` fixtures.

pyproject's pytest `pythonpath` covers this process only; `python -m
spechtfan` in a child process reads PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def no_remembered_certificates():
    """Empty `oracle._PASSED` before and after each test, so that no test
    skips a certificate because another test passed an equal table."""
    from spechtfan.oracle import _PASSED

    _PASSED.clear()
    yield
    _PASSED.clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) wraps each named function of the module for
    the test and returns a dict holding each one's call count so far."""

    def install(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, name=name, real=getattr(module, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def tamper_lanes(monkeypatch):
    """tamper_lanes({parts: term map}) makes each named shape's T0 expansion
    (`specht._shape_terms`) the given term map, and leaves every other
    shape's alone, so the lanes and the polynomials built from it agree."""
    import spechtfan.specht

    real = spechtfan.specht._shape_terms

    def install(table):
        monkeypatch.setattr(
            spechtfan.specht, "_shape_terms", lambda parts: table[parts] if parts in table else real(parts)
        )
        spechtfan.specht._term_lanes.cache_clear()

    yield install
    spechtfan.specht._term_lanes.cache_clear()
