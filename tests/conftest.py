import os
import sys

import pytest
import scipy.linalg

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def qr_updates(monkeypatch):
    """The names of the scipy.linalg.qr_insert and qr_delete calls made while
    the test runs, in order: each is one active-set change of the solver's
    finish, so a start that needs no change makes none."""
    calls = []
    for name in ("qr_insert", "qr_delete"):
        def counted(*args, _name=name, _real=getattr(scipy.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counted)
    return calls
