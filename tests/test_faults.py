"""Faults in the statement of the theorem and in the decision kernel.

Each row applies one fault by monkeypatch, runs the verdict, and pins what
rejects it: the battery entries that are not certified, the links that
fail, the exit status of ``verify-proof`` and, for a ``prove`` row, the
outcome it prints.  A row whose sets are empty and whose status is 0 is a
fault the verdict does not see today; a strengthening of the verdict shows
here as a changed pin, and no weakening passes silently.
"""

import json
from fractions import Fraction
from functools import partial

import pytest

from tiltbound import cli, exppoly, prover, regions, rootisolation, tilted
from tiltbound.exppoly import ExpPoly, parse_expression

IDENTITY_LINKS = {link.name for link in regions.LINKS if link.identities is not None}
LEMMAS = {name: text for name, text, _, _ in prover.BATTERY}


def _false_theorem(monkeypatch):
    # sinh(w)/w scaled by 999/1000 in tilted.d: the bound is sharp, so d < 0 fails
    sinh_over = tilted.vsinh_over
    monkeypatch.setattr(tilted, "vsinh_over", lambda x: Fraction(999, 1000) * sinh_over(x))


def _d_case1_u_uncapped(monkeypatch):
    form = regions.CATALOG["d_case1"]
    uncapped = form._replace(fn=partial(tilted.d, u_capped=False, v_capped=True))
    monkeypatch.setitem(regions.CATALOG, "d_case1", uncapped)


def _no_roots(monkeypatch):
    monkeypatch.setattr(rootisolation, "count_roots_above", lambda q: 0)


def _derivative_drops_constant_rate(monkeypatch):
    # the k = 0 terms of d/dw: a pure polynomial in w differentiates to zero
    def derivative(p):
        return ExpPoly({(i, k): c for i, k, c in exppoly.derivative(p).terms() if k})

    monkeypatch.setattr(prover, "derivative", derivative)


def _normalize_keeps_content(monkeypatch):
    # the shift to minimum degree zero without the division by the content
    def normalize(p):
        min_i = min(i for i, _, _ in p.terms())
        min_k = min(k for _, k, _ in p.terms())
        return ExpPoly({(i - min_i, k - min_k): c for i, k, c in p.terms()})

    monkeypatch.setattr(prover, "normalize", normalize)


def _swapped_certificate(monkeypatch):
    # d111_negativity is decided as d1_case2_slope_at_u_zero: a valid
    # certificate of the same sign, for another lemma
    decide_sign = prover.decide_sign
    swap = {
        parse_expression(LEMMAS["d111_negativity"]):
            parse_expression(LEMMAS["d1_case2_slope_at_u_zero"]),
    }
    monkeypatch.setattr(prover, "decide_sign", lambda p: decide_sign(swap.get(p, p)))


# fault, uncertified entries, failing links, verify-proof status, prove (expr, outcome)
FAULTS = [
    pytest.param(_false_theorem, set(), IDENTITY_LINKS, 1, None, id="false_theorem"),
    pytest.param(
        _d_case1_u_uncapped, set(), {"case1_concavity_in_v", "case1_slope_at_v_eq_u"}, 1, None,
        id="d_case1_u_uncapped",
    ),
    # every verdict claim is true, so the verdict passes; prove certifies a false claim
    pytest.param(_no_roots, set(), set(), 0, ("exp(w) - 3", "negative"), id="no_roots"),
    # the derivative of a pure polynomial in w comes back zero, and normalize
    # raises inside the chain: the five lemmas whose chains reach one fail, and
    # so does every link that reads one of them
    pytest.param(
        _derivative_drops_constant_rate,
        {
            "d1_case1_concavity_majorant", "d1_case1_slope_at_corner",
            "d1_case2_concavity_majorant", "d1_case2_slope_at_u_zero", "sinh_over_increasing",
        },
        {
            "case1_slope_at_v_eq_u", "case1_diagonal", "case2_decreasing_in_v",
            "case3_decreasing_in_w", "boundary_v_eq_w",
        },
        1,
        None,
        id="derivative",
    ),
    pytest.param(_normalize_keeps_content, set(), set(), 0, None, id="normalize_content"),
    # the battery binds each certificate to its lemma: the swap fails that
    # entry and the one link that reads it
    pytest.param(
        _swapped_certificate, {"d111_negativity"}, {"case2_decreasing_in_v"}, 1, None,
        id="swapped_certificate",
    ),
]


@pytest.fixture
def fresh_caches():
    """Empty the lemma and expansion caches before and after a fault."""
    prover._lemma.cache_clear()
    regions._expanded.cache_clear()
    yield
    prover._lemma.cache_clear()
    regions._expanded.cache_clear()


@pytest.mark.parametrize("fault, uncertified, failing, status, prove", FAULTS)
def test_fault_table(monkeypatch, capsys, fresh_caches, fault, uncertified, failing, status, prove):
    fault(monkeypatch)
    battery = prover.verify_battery()
    structure = regions.verify_case_structure(*cli.DEFAULT_BOX, battery)
    found = (
        {e.name for e in battery.entries if not e.certified},
        {c.name for c in structure.checks if not c.passed},
    )
    assert found == (uncertified, failing)
    assert cli.main(["verify-proof"]) == status
    capsys.readouterr()
    if prove is not None:
        text, outcome = prove
        cli.main(["prove", "--expr", text])
        assert json.loads(capsys.readouterr().out)["outcome"] == outcome
