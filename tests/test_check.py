import pytest

import quadrics.check as check_module
import quadrics.separated as separated_module
from quadrics.check import format_report, oracle_check
from quadrics.classical import Miss
from quadrics.separated import RMatrix, discriminant_separated


class TestOracleCheck:
    def test_clean_run(self):
        report = oracle_check(seed=42, cases=3000)
        assert report.ok
        assert report.comparisons == 3000
        assert report.failures == []

    def test_single_case(self):
        report = oracle_check(seed=1, cases=1)
        assert report.comparisons == 1

    def test_needs_cases(self):
        with pytest.raises(ValueError):
            oracle_check(seed=1, cases=0)

    def test_injected_sign_flip_is_caught(self, monkeypatch):
        real = separated_module.r_from_point_dir

        def flipped(point, direction):
            r = real(point, direction)
            return RMatrix(-r.r12, -r.r13, -r.r14, -r.r23, -r.r24, -r.r34)

        monkeypatch.setattr(separated_module, "r_from_point_dir", flipped)
        report = oracle_check(seed=42, cases=200)
        assert not report.ok
        assert any(f.reason == "discriminant mismatch" for f in report.failures)

    def test_report_formatting(self):
        report = oracle_check(seed=5, cases=50)
        text = format_report(report)
        assert "50 cases" in text and "50 comparisons" in text and "0 failures" in text
        assert f"{report.band_ties} band ties" in text

    def test_band_ties_are_counted(self, monkeypatch):
        # Every separated result becomes a Miss, so each pair classical does
        # not call a Miss is a classification mismatch: a failure at the
        # real band, a counted tie once the band covers every discriminant.
        monkeypatch.setattr(
            check_module, "intersect_separated",
            lambda q, cache: Miss(d=discriminant_separated(q, cache)),
        )
        narrow = oracle_check(seed=7, cases=200)
        mismatches = [f for f in narrow.failures if f.reason.startswith("classification")]
        assert mismatches and len(mismatches) == len(narrow.failures)
        monkeypatch.setattr(check_module, "TANGENT_EPS", 1e100)
        wide = oracle_check(seed=7, cases=200)
        assert wide.ok
        assert wide.band_ties == narrow.band_ties + len(mismatches)
        assert f"0 failures, {wide.band_ties} band ties" in format_report(wide)

    def test_report_lists_at_most_ten_failures(self, monkeypatch):
        real = separated_module.r_from_point_dir

        def flipped(point, direction):
            r = real(point, direction)
            return RMatrix(-r.r12, -r.r13, -r.r14, -r.r23, -r.r24, -r.r34)

        monkeypatch.setattr(separated_module, "r_from_point_dir", flipped)
        report = oracle_check(seed=42, cases=100)
        text = format_report(report)
        listed = [line for line in text.splitlines() if line.startswith("  case ")]
        assert len(listed) <= 10
        if len(report.failures) > 10:
            assert "more" in text.splitlines()[-1]
