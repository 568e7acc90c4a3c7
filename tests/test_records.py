"""The library's records compare field by field, like the dataclasses they were.

``perfbench`` and the suite compare results with ``==``, so every record
class must equal a record built from equal fields and differ from one that
differs in any single field.
"""

from fractions import Fraction

import pytest

from pqzeta.analytic import EulerProductReport
from pqzeta.chains import ChainKernel, LayerDistribution, LimitReport, kernel_real_beta
from pqzeta.gamma import ContinuityReport, ExclusionWitness, TrivialityReport
from pqzeta.mahler import DecayReport, MahlerSeries
from pqzeta.measures import OpenSetMeasure
from pqzeta.padics import PadicNumber, Record
from pqzeta.zetabranch import CongruenceResult, DoubleBranch, KLBranch

_STEP = kernel_real_beta(2, 2).step


# (class, fields of a valid record as a fresh dict, {field: a different valid value})
CASES = [
    (EulerProductReport,
     lambda: dict(s=2.0, prime_bound=10, term_bound=20, residual=0.5, tail_bound=0.25),
     dict(s=3.0, prime_bound=11, term_bound=21, residual=0.4, tail_bound=0.3)),
    (ChainKernel,
     lambda: dict(family="real-beta", params={"alpha": 2}, step=_STEP, root=(0, 0), exact=True),
     dict(family="u-gamma", params={"alpha": 3}, step=lambda s: [], root=(1, 0), exact=False)),
    (LayerDistribution,
     lambda: dict(n=2, weights={(0, 2): Fraction(1, 2), (1, 1): Fraction(1, 2)}),
     dict(n=3, weights={(0, 2): Fraction(1)})),
    (LimitReport,
     lambda: dict(target="real-beta", schedule=[4, 8], residuals=[0.5, 0.25], tol=1e-6),
     dict(target="p-adic-beta", schedule=[4, 16], residuals=[0.5, 0.125], tol=1e-7)),
    (ContinuityReport,
     lambda: dict(p=5, s=1, upto=50, ok=False, first_failure=7),
     dict(p=7, s=2, upto=51, ok=True, first_failure=None)),
    (ExclusionWitness,
     lambda: dict(side="p-side", exponent=2, inverse=7, divisor=5),
     dict(side="q-side", exponent=3, inverse=8, divisor=3)),
    (TrivialityReport,
     lambda: dict(p=3, q=5, j_bound=50, depth=12),
     dict(p=7, q=11, j_bound=51, depth=13)),
    (MahlerSeries,
     lambda: dict(p=5, precision=3, coeffs=[PadicNumber(5, 0, 1, 3), PadicNumber.zero_mod(5, 3)], decay=None),
     dict(p=7, precision=4, coeffs=[PadicNumber(5, 0, 2, 3), PadicNumber.zero_mod(5, 3)], decay=(1, 1))),
    (DecayReport,
     lambda: dict(ok=False, s=2, t=1, upto=16, violation=(4, 1, 0)),
     dict(ok=True, s=3, t=0, upto=17, violation=None)),
    (OpenSetMeasure,
     lambda: dict(a=2, p=5, n=1, b=3, series_sum=Fraction(-1, 4), certified_digits=7,
                  conjectured=Fraction(1, 4), value=PadicNumber(5, 0, 2, 4)),
     dict(a=3, p=7, n=2, b=4, series_sum=Fraction(1, 4), certified_digits=6,
          conjectured=Fraction(-1, 4), value=PadicNumber(5, 0, 3, 4))),
    (CongruenceResult,
     lambda: dict(ok=True, required=1, valuation=float("inf")),
     dict(ok=False, required=2, valuation=1)),
    (KLBranch,
     lambda: dict(p=5, s0=2, precision=3),
     dict(p=7, s0=1, precision=2)),
    (DoubleBranch,
     lambda: dict(p=5, q=7, sigma0=1, pole=False),
     dict(p=11, q=11, sigma0=0)),  # pole=True needs sigma0 = -1, so it never differs alone
]
_IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_is_a_slotted_record():
    assert len(CASES) == 13
    for cls, fields, other in CASES:
        assert issubclass(cls, Record) and not hasattr(cls(**fields()), "__dict__"), cls
        assert set(other) <= set(cls.__slots__), cls


@pytest.mark.parametrize("cls, fields, other", CASES, ids=_IDS)
def test_equal_fields_compare_equal(cls, fields, other):
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert a != fields() and a != tuple(fields().values())
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls, fields, other", CASES, ids=_IDS)
def test_one_different_field_compares_unequal(cls, fields, other):
    base = cls(**fields())
    for name, value in other.items():
        changed = fields()
        changed[name] = value
        record = cls(**changed)
        assert record != base and not record == base, name


def test_triviality_reports_hold_their_own_containers():
    a, b = TrivialityReport(3, 5, 50, 12), TrivialityReport(3, 5, 50, 12)
    assert a.witnesses is not b.witnesses and a.undecided is not b.undecided
    a.undecided.append(4)
    assert a != b and b.undecided == []


def test_repr_names_every_field():
    assert repr(KLBranch(5, 2, 3)) == "KLBranch(p=5, s0=2, precision=3)"
    assert repr(LimitReport("real-beta", [4], [0.5], 1e-06)) == (
        "LimitReport(target='real-beta', schedule=[4], residuals=[0.5], tol=1e-06)"
    )


def test_positional_and_keyword_construction_agree():
    assert KLBranch(5, 2, 3) == KLBranch(p=5, s0=2, precision=3)
    assert DoubleBranch(5, 7, 1) == DoubleBranch(p=5, q=7, sigma0=1, pole=False)
    assert MahlerSeries(5, 3, []) == MahlerSeries(p=5, precision=3, coeffs=[], decay=None)


@pytest.mark.parametrize(
    "build",
    [
        lambda: KLBranch(p=3, s0=1, precision=2),
        lambda: KLBranch(p=5, s0=9, precision=2),
        lambda: KLBranch(p=6, s0=1, precision=2),
        lambda: KLBranch(p=5, s0=2, precision=0),
        lambda: DoubleBranch(p=5, q=7, sigma0=-1),
        lambda: DoubleBranch(p=5, q=7, sigma0=3),
        lambda: DoubleBranch(p=3, q=7, sigma0=0),
        lambda: DoubleBranch(p=5, q=5, sigma0=0),
        lambda: DoubleBranch(p=5, q=7, sigma0=0, pole=True),
    ],
)
def test_validating_constructors_raise(build):
    with pytest.raises(ValueError):
        build()
