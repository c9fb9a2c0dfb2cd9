"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import pytest


@dataclass
class IVP:
    """One rk.integrate call: its arguments, the code object that called it, and its
    RKResult (None while it runs, and after it raised)."""

    args: tuple
    kwargs: dict
    caller: object
    result: object = None


@pytest.fixture
def ivps(monkeypatch):
    """The list of the test's IVPs, one IVP per rk.integrate call, appended as it starts."""
    import hessbif.rk as rk

    log = []
    real = rk.integrate

    def recording(*args, **kwargs):
        ivp = IVP(args, kwargs, sys._getframe(1).f_code)
        log.append(ivp)
        ivp.result = real(*args, **kwargs)
        return ivp.result

    monkeypatch.setattr(rk, "integrate", recording)
    return log
