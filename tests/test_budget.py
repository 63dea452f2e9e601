"""Loss budgets: bookkeeping, sticky bounds, margins, built-in database."""

import math

import pytest

from ipasim.budget import (
    BOUNDARY_INFEASIBLE,
    BUILTIN_COMPONENTS,
    BUILTIN_FIBER_DB_PER_KM,
    FEASIBLE,
    INFEASIBLE,
    ComponentLoss,
    CouplingScheme,
    InjectionPath,
    LossValue,
    countermeasure_margin,
    coupling_plan_loss,
    parse_loss_entry,
    path_loss,
    required_eve_power,
    standard_path,
)


def test_parse_loss_entry():
    assert parse_loss_entry(33) == LossValue(33.0, False)
    assert parse_loss_entry(7.5) == LossValue(7.5, False)
    assert parse_loss_entry("  >78 ") == LossValue(78.0, True)
    with pytest.raises(ValueError, match="neither a number"):
        parse_loss_entry("about 78")
    with pytest.raises(ValueError):
        parse_loss_entry(-3)


def test_loss_addition_keeps_the_bound_sticky():
    a = LossValue(10.0) + LossValue(5.0)
    assert (a.db, a.lower_bound) == (15.0, False)
    b = LossValue(10.0) + LossValue(78.0, lower_bound=True)
    assert (b.db, b.lower_bound) == (88.0, True)
    c = LossValue(78.0, lower_bound=True) + LossValue(78.0, lower_bound=True)
    assert c.lower_bound


def test_kilometer_of_fiber_plus_dwdm_c33_at_405():
    path = standard_path(1.0, ["dwdm_c33"])
    loss = path_loss(path, 405)
    assert loss.db == pytest.approx(46.0, abs=1e-12)
    assert not loss.lower_bound
    need = required_eve_power(path, 405, 3e-9)
    assert need.watts == pytest.approx(0.00011943215116604907, rel=1e-12)
    # within one percent of the 120 uW ballpark
    assert abs(need.watts - 120e-6) / 120e-6 < 0.01
    assert not need.lower_bound


@pytest.mark.parametrize("blocker", ["isolator", "circulator"])
def test_isolating_components_push_required_power_to_watts(blocker):
    path = standard_path(1.0, [blocker])
    loss = path_loss(path, 405)
    assert loss.lower_bound
    assert loss.db > 91.0 - 1e-12
    need = required_eve_power(path, 405, 3e-9)
    assert need.lower_bound
    assert need.watts >= 1.0  # watt scale, far beyond any quiet injection
    if blocker == "isolator":
        assert need.watts == pytest.approx(3.7767762353824983, rel=1e-12)


def test_power_roundtrip():
    path = standard_path(2.5, ["dwdm_c33"])
    target = 3e-9
    launch = required_eve_power(path, 405, target).watts
    delivered = launch * 10.0 ** (-path_loss(path, 405).db / 10.0)
    assert delivered == pytest.approx(target, rel=1e-12)
    with pytest.raises(ValueError):
        required_eve_power(path, 405, 0.0)


def test_margin_verdicts():
    path = standard_path(1.0, ["dwdm_c33"])  # 46 dB
    # 1 W available against a 3 nW target: 85 dB headroom, attack feasible
    rep = countermeasure_margin(path, 405, 1.0, 3e-9)
    assert rep.verdict == FEASIBLE
    assert rep.margin_db == pytest.approx(46.0 - 10.0 * 8.522878745280337, abs=1e-9)
    # tiny power budget: infeasible
    rep = countermeasure_margin(path, 405, 1e-5, 3e-9)
    assert rep.verdict == INFEASIBLE
    # zero margin counts as infeasible (boundary convention)
    empty = InjectionPath()
    rep = countermeasure_margin(empty, 405, 3e-9, 3e-9)
    assert rep.margin_db == 0.0
    assert rep.verdict == BOUNDARY_INFEASIBLE
    # a bounded loss makes the margin itself a bound
    rep = countermeasure_margin(standard_path(1.0, ["isolator"]), 405, 1.0, 3e-9)
    assert rep.lower_bound
    with pytest.raises(ValueError):
        countermeasure_margin(path, 405, 0.0, 3e-9)


@pytest.mark.parametrize("watts", [0.0, -1.0, math.nan, math.inf])
def test_each_power_must_be_positive_and_finite(watts):
    path = standard_path(1.0, ["dwdm_c33"])
    with pytest.raises(ValueError, match="target_power_w must be positive"):
        required_eve_power(path, 405, watts)
    with pytest.raises(ValueError, match="eve_max_power_w must be positive"):
        countermeasure_margin(path, 405, watts, 3e-9)
    with pytest.raises(ValueError, match="target_power_w must be positive"):
        countermeasure_margin(path, 405, 1.0, watts)


def test_empty_path_is_lossless():
    empty = InjectionPath()
    assert path_loss(empty, 405) == LossValue(0.0)
    assert required_eve_power(empty, 405, 3e-9).watts == pytest.approx(3e-9)


def test_unknown_lookups_list_what_is_known():
    with pytest.raises(ValueError, match="known:.*dwdm_c33"):
        standard_path(1.0, ["no_such_part"])
    with pytest.raises(ValueError, match="no loss entry at 1310"):
        path_loss(standard_path(0.0, ["dwdm_c33"]), 1310)
    with pytest.raises(ValueError, match="fiber has no loss entry"):
        path_loss(standard_path(1.0), 1310)
    with pytest.raises(ValueError, match="known:.*bs_5050"):
        coupling_plan_loss("duct_tape")


def test_builtin_database_shape():
    assert BUILTIN_FIBER_DB_PER_KM[405] == 13.0
    assert set(BUILTIN_COMPONENTS) == {"dwdm_c33", "dwdm_c35", "isolator", "circulator"}
    for comp in BUILTIN_COMPONENTS.values():
        for wl in (405, 532, 780):
            assert comp.at(wl).db >= 0.0
    # both reflective blockers are instrument-floor bounds at the short wavelengths
    for name in ("isolator", "circulator"):
        assert BUILTIN_COMPONENTS[name].at(405).lower_bound
        assert BUILTIN_COMPONENTS[name].at(532).lower_bound
        assert not BUILTIN_COMPONENTS[name].at(780).lower_bound


def test_coupling_schemes():
    scheme = coupling_plan_loss("bs_5050")
    assert scheme == CouplingScheme("bs_5050", 3.4, 7.41)
    # low signal touch comes at the price of high irradiation loss
    assert coupling_plan_loss("bs_991").irradiation_loss_405_db > scheme.irradiation_loss_405_db


def test_user_components_extend_the_catalog():
    custom = ComponentLoss.from_entries("splice_box", {405: 1.5, "780": ">3"})
    path = standard_path(0.0, ["splice_box", "dwdm_c33"], {"splice_box": custom})
    assert path_loss(path, 405).db == pytest.approx(34.5)
    assert path_loss(path, 780).lower_bound
    with pytest.raises(ValueError):
        custom.at(532)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        LossValue(-1.0)
    with pytest.raises(ValueError):
        InjectionPath(fiber_length_km=-0.5)
