"""Tests for the cross-validation battery."""

import logging
import time

from spintex import constants as cn
from spintex.selfcheck import ALL_CHECKS, check_sign_audit, run_selfcheck


def test_selfcheck_passes_and_is_quick(caplog):
    t0 = time.time()
    with caplog.at_level(logging.INFO, logger="spintex"):
        assert run_selfcheck()
    elapsed = time.time() - t0
    lines = [r.getMessage() for r in caplog.records if r.name == "spintex"]
    assert elapsed < 300.0
    assert sum(1 for ln in lines if ln.startswith("[pass]")) \
        == len(ALL_CHECKS)
    assert not any(ln.startswith("[FAIL]") for ln in lines)
    assert lines[-1] == "all checks passed"


def test_sign_audit_control(monkeypatch):
    # flipping the interaction sign must trip the audit
    assert check_sign_audit().passed
    monkeypatch.setattr(cn, "CDD_HHZ_UM3", -cn.CDD_HHZ_UM3)
    assert not check_sign_audit().passed
