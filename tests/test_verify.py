import fdvar.verify as verify
from fdvar.cli import main
from fdvar.critical import critical_constant
from fdvar.verify import run_verification


def only(name):
    return [(n, check) for n, check in verify._CHECKS if n == name]


def test_fresh_checkout_passes_everything():
    results = run_verification()
    assert len(results) == 8
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_perturbed_constant_table_fails(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", only("critical-constants"))
    monkeypatch.setattr(verify, "critical_constant", lambda d: 0.2 if d == 1 else critical_constant(d))
    [result] = run_verification()
    assert result.name == "critical-constants" and not result.passed


def test_mismatched_agreement_tolerance_fails(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", only("backend-agreement"))
    monkeypatch.setattr(verify, "_AGREEMENT_TOL", 1e-16)
    [result] = run_verification()
    assert result.name == "backend-agreement" and not result.passed
    assert "(tol 1e-16)" in result.detail


def test_cli_verify_prints_pass_lines(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "8/8 checks passed" in out
