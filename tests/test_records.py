"""The record classes keep their constructor and value contracts, and
importing the package loads no heavy standard-library module."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from glpq.dsl import get_context
from glpq.errors import InvalidRay
from glpq.report import Check, Identity, Report
from glpq.series import SeriesConfig, series_context

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSeriesConfig:
    def test_equal_configs_share_one_context(self):
        a = SeriesConfig(F(1), F(2))
        b = SeriesConfig(alpha=F(1), beta_ray=F(2), N=6, K=12, weight=8)
        assert a == b and hash(a) == hash(b)
        assert series_context(a) is series_context(b)
        assert get_context("series", a) is get_context("series", b)

    @pytest.mark.parametrize("field", ["alpha", "beta_ray", "N", "K",
                                       "weight"])
    def test_fields_are_read_only(self, field):
        cfg = SeriesConfig()
        with pytest.raises(AttributeError):
            setattr(cfg, field, 1)

    def test_positional_keyword_and_default_construction(self):
        cfg = SeriesConfig()
        assert (cfg.alpha, cfg.beta_ray, cfg.N, cfg.K, cfg.weight) == \
            (F(1), F(1), 6, 12, 8)
        assert SeriesConfig(F(2), F(-1), 4, 7, 6) == \
            SeriesConfig(K=7, weight=6, N=4, beta_ray=F(-1), alpha=F(2))
        assert SeriesConfig(F(3)).beta_ray == F(1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"alpha": F(0)}, "ray components must be nonzero"),
        ({"beta_ray": F(0)}, "ray components must be nonzero"),
        ({"alpha": F(1), "beta_ray": F(-1)},
         "alpha + beta_ray must be nonzero"),
        ({"N": 6, "K": 7}, "K must be at least N + 2"),
        ({"N": 6, "weight": 5}, "weight cap below the adic reporting order"),
        ({"K": 8, "weight": 8},
         "weight cap must be below the scalar expansion order K"),
    ])
    def test_invalid_ray_messages(self, kwargs, message):
        with pytest.raises(InvalidRay) as info:
            SeriesConfig(**kwargs)
        assert str(info.value) == message
        with pytest.raises(InvalidRay) as info:
            SeriesConfig()._replace(**kwargs)
        assert str(info.value) == message


class TestReportRecords:
    def test_reports_do_not_share_params_or_checks(self):
        first, second = Report("a"), Report("b")
        first.params["n"] = 1
        first.checks.append(Check("x", "anchor", "pass"))
        assert second.params == {} and second.checks == []
        assert second.elapsed_ms == 0 and second.ok

    def test_check_witness_defaults_to_none(self):
        check = Check("x", "anchor", "pass")
        assert check.witness is None
        assert Check(id="y", anchor="z", status="fail",
                     witness="w").witness == "w"

    def test_keyword_construction(self):
        ident = Identity(id="i", anchor="a = a", lhs=1, rhs=1)
        assert (ident.id, ident.anchor, ident.lhs, ident.rhs) == \
            ("i", "a = a", 1, 1)
        rep = Report(suite="s", params={"k": 2}, checks=[], elapsed_ms=5)
        assert rep.to_dict() == {"suite": "s", "params": {"k": 2},
                                 "checks": [], "elapsed_ms": 5}


HEAVY = ("dataclasses", "inspect", "ast", "dis")
PACKAGE_MODULES = ("glpq", "glpq.cli", "glpq.dsl", "glpq.tside",
                   "glpq.mside", "glpq.series", "glpq.numeric")


def test_package_import_loads_no_heavy_stdlib_module():
    # -S keeps site (and the .pth files it runs) from loading modules
    # that are not the package's doing
    code = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
            "before = set(sys.modules)\n"
            f"import {', '.join(PACKAGE_MODULES)}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert set(PACKAGE_MODULES) <= loaded
    assert sorted(loaded & set(HEAVY)) == []
