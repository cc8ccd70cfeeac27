import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from shiftrules import epsr
from shiftrules.epsr import (
    PSRRule,
    ShiftNodes,
    SingularNodesError,
    apply_rule,
    build_A,
    determinant_closed_form,
    equidistant_coefficients_closed_form,
    equidistant_nodes,
    evaluation_count,
    make_rule,
    rhs_vector,
    rule_from_json,
    rule_to_json,
    solve_coefficients,
)
from shiftrules.spectra import FrequencySet, integer_frequencies
from shiftrules.trigpoly import TrigPoly, random_trigpoly
from shiftrules.variance import EPS_BOX, allocate, allocation_variance, predicted_variance

FS12 = integer_frequencies(2)


def random_valid_nodes(fs, d, rng, tries=100):
    parity = "odd" if d % 2 else "even"
    n = fs.r if parity == "odd" else fs.r + 1
    for _ in range(tries):
        vals = np.sort(rng.uniform(0.05, math.pi - 0.05, n))
        if parity == "even":
            vals[0] = 0.0
        nodes = ShiftNodes(parity, tuple(vals))
        try:
            solve_coefficients(nodes, fs, d)
            return nodes
        except SingularNodesError:
            continue
    raise RuntimeError("no valid nodes found")


# --- matrices -------------------------------------------------------------

def test_A_odd_single_frequency():
    a = build_A(ShiftNodes("odd", (math.pi / 2,)), integer_frequencies(1), "odd")
    assert np.allclose(a, [[1.0]])


def test_A_odd_example_matrix():
    a = build_A(ShiftNodes("odd", (math.pi / 4, 3 * math.pi / 4)), FS12, "odd")
    s = math.sqrt(2) / 2
    assert np.allclose(a, [[s, 1.0], [s, -1.0]], atol=1e-15)


def test_A_odd_zero_node_gives_zero_row():
    a = build_A(ShiftNodes("odd", (0.0, 1.0)), FS12, "odd")
    assert np.all(a[0] == 0.0)


def test_A_even_single_frequency():
    a = build_A(ShiftNodes("even", (0.0, math.pi)), integer_frequencies(1), "even")
    assert np.allclose(a, [[1, 1], [1, -1]], atol=1e-15)


def test_A_even_example_matrix():
    a = build_A(ShiftNodes("even", (0.0, math.pi / 2, math.pi)), FS12, "even")
    assert np.allclose(a, [[1, 1, 1], [1, 0, -1], [1, -1, 1]], atol=1e-15)


def test_A_even_duplicate_cosines_duplicate_rows():
    a = build_A(ShiftNodes("even", (1.0, 2 * math.pi - 1.0, 2.0)), FS12, "even")
    assert np.allclose(a[0], a[1], atol=1e-12)


# --- right-hand sides -----------------------------------------------------

def test_rhs_first_order():
    assert np.allclose(rhs_vector(1, FS12, "odd"), [1.0, 2.0])


def test_rhs_second_order():
    assert np.allclose(rhs_vector(2, FS12, "even"), [0.0, -1.0, -4.0])


def test_rhs_zeroth_order():
    assert np.allclose(rhs_vector(0, integer_frequencies(1), "even"), [1.0, 1.0])


def test_rhs_signs_cycle():
    fs = integer_frequencies(1)
    assert rhs_vector(3, fs, "odd")[0] == pytest.approx(-1.0)
    assert rhs_vector(5, fs, "odd")[0] == pytest.approx(1.0)
    assert rhs_vector(4, fs, "even")[1] == pytest.approx(1.0)


def test_rhs_parity_mismatch():
    with pytest.raises(ValueError):
        rhs_vector(1, FS12, "even")
    with pytest.raises(ValueError):
        rhs_vector(2, FS12, "odd")


def test_rhs_refuses_an_order_whose_top_power_overflows():
    # 1e200**3 is beyond the double range; unchecked, the rule document held
    # -Infinity coefficients
    fs = FrequencySet((1e200,))
    message = r"order d = 3 overflows: Omega_max\^d with Omega_max = 1e\+200"
    with pytest.raises(ValueError, match=message):
        rhs_vector(3, fs, "odd")
    with pytest.raises(ValueError, match=message):
        epsr.solve_coefficients_stacked(np.array([[1e-200]]), fs, 3)
    with pytest.raises(ValueError, match=message):
        make_rule(ShiftNodes("odd", (1e-200,)), fs, 3)
    assert rhs_vector(1, fs, "odd")[0] == 1e200


def test_stacked_solve_builds_its_right_hand_side_once(monkeypatch):
    # a node search solves one stack per generation; the right-hand side and
    # its overflow check belong to (fs, d), not to the stack
    calls = []
    real = epsr.rhs_vector

    def counting(d, fs, parity):
        calls.append((d, fs))
        return real(d, fs, parity)

    fs = FrequencySet((0.7, 1.9, 3.2))
    monkeypatch.setattr(epsr, "rhs_vector", counting)
    epsr._rhs_column.cache_clear()
    for stack in np.random.default_rng(5).uniform(0.1, 3.0, size=(3, 7, 3)):
        epsr.solve_coefficients_stacked(stack, fs, 1)
    epsr.solve_coefficients_stacked(np.zeros((2, 4)), fs, 2)
    assert calls == [(1, fs), (2, fs)]
    assert not epsr._rhs_column(fs, 1).flags.writeable and not epsr._frequency_row(fs).flags.writeable


# --- coefficient solves ---------------------------------------------------

def test_solve_single_frequency_inverse_sine():
    for x1 in (0.3, math.pi / 2, 2.0):
        b, _ = solve_coefficients(ShiftNodes("odd", (x1,)), integer_frequencies(1), 1)
        assert b[0] == pytest.approx(1.0 / math.sin(x1), rel=1e-12)


def test_solve_two_frequency_example():
    b, diag = solve_coefficients(ShiftNodes("odd", (math.pi / 4, 3 * math.pi / 4)), FS12, 1)
    expect = [(1 + math.sqrt(2)) / math.sqrt(2), (1 - math.sqrt(2)) / math.sqrt(2)]
    assert np.allclose(b, expect, atol=1e-12)
    assert diag.nonsingular


def test_solve_rejects_node_at_pi():
    with pytest.raises(SingularNodesError) as exc:
        solve_coefficients(ShiftNodes("odd", (math.pi,)), integer_frequencies(1), 1)
    assert not exc.value.diagnostics.nonsingular
    assert abs(exc.value.diagnostics.determinant) < 1e-13


# --- stacked solves ---------------------------------------------------------

_STRADDLE_FREQS = {"integer": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                   "non-integer": (0.7, 1.9, 3.2, 4.45, 5.3, 6.85)}


@st.composite
def _straddling_rows(draw, m):
    """A node row made near-singular by a random margin delta in 1e-14..1e-3.

    The row starts well spread, one node per cell of [0, pi]; one node may
    move to 0, pi or EPS_BOX (the optimizers' box margin), which zero or
    nearly zero every sine.  Then a node pair x, x + delta or a node delta
    away from 0 or pi puts the condition estimate near 1 / delta.
    """
    row = [(i + draw(st.floats(0.25, 0.75))) * math.pi / m for i in range(m)]
    if draw(st.booleans()):
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from([0.0, math.pi, EPS_BOX]))
    delta = 10.0 ** -draw(st.floats(3.0, 14.0))
    i = draw(st.integers(0, m - 1))
    if m > 1 and draw(st.booleans()):
        k = draw(st.integers(0, m - 2))
        row[k + (k >= i)] = row[i] + delta
    else:
        row[i] = draw(st.sampled_from([0.0, math.pi])) + delta
    return row


@st.composite
def _straddling_stacks(draw):
    r = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    fs = FrequencySet(_STRADDLE_FREQS[draw(st.sampled_from(sorted(_STRADDLE_FREQS)))][:r])
    m = r if d % 2 else r + 1
    rows = draw(st.lists(_straddling_rows(m), min_size=1, max_size=5))
    return fs, d, np.array(rows)


@given(case=_straddling_stacks())
def test_stacked_solve_matches_scalar_across_the_condition_limit(case):
    fs, d, x = case
    parity = "odd" if d % 2 else "even"
    b, nonsingular = epsr.solve_coefficients_stacked(x, fs, d)
    for row, got, ok in zip(x, b, nonsingular):
        a = build_A(row, fs, parity)
        assert ok == epsr._diagnose(a).nonsingular
        if ok:
            want, _ = solve_coefficients(ShiftNodes(parity, tuple(row)), fs, d)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        else:
            assert np.all(np.isnan(got))


def test_stacked_solve_sends_only_uncertified_rows_to_the_svd(monkeypatch):
    seen = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    rng = np.random.default_rng(3)
    for r in range(1, 9):
        for d in (1, 2):
            # the equidistant nodes, then random well-spread sets: each node
            # drawn within a quarter spacing of an equidistant one
            equi = equidistant_nodes(r, "odd" if d % 2 else "even").as_array()
            jittered = equi + rng.uniform(-0.25, 0.25, (40, equi.size)) * math.pi / r
            _, nonsingular = epsr.solve_coefficients_stacked(np.vstack([equi, jittered]),
                                                             integer_frequencies(r), d)
            assert nonsingular.all()
    assert seen == []

    fs = integer_frequencies(3)
    x = np.vstack([equidistant_nodes(3, "odd").as_array()] * 4)
    x[2, 1] = x[2, 0]
    _, nonsingular = epsr.solve_coefficients_stacked(x, fs, 1)
    assert nonsingular.tolist() == [True, True, False, True]
    assert len(seen) == 1 and seen[0].shape == (1, 3, 3)
    assert np.array_equal(seen[0][0], build_A(x[2], fs, "odd"))


def test_a_memoised_rule_carries_the_bits_of_its_nodes():
    # make_rule is memoised per equal (nodes, frequencies, order); -0 == 0,
    # so the node -0 is stored as 0 and no cached rule can write another sign
    fs = integer_frequencies(2)
    negative = ShiftNodes("even", (-0.0, 1.0, 2.0))
    assert math.copysign(1.0, negative.values[0]) == 1.0
    assert make_rule(negative, fs, 2) is make_rule(ShiftNodes("even", (0.0, 1.0, 2.0)), fs, 2)
    assert '"nodes": [\n    0.0,' in rule_to_json(make_rule(negative, fs, 2))


def test_a_memoised_rule_keeps_the_type_of_its_order():
    # a numpy order must not hand its rule to a later int caller, whose
    # document json could then not write
    nodes, fs = equidistant_nodes(3, "odd"), integer_frequencies(3)
    assert type(make_rule(nodes, fs, np.int64(3)).order) is np.int64
    assert type(make_rule(nodes, fs, 3).order) is int
    assert json.loads(rule_to_json(make_rule(nodes, fs, 3)))["order"] == 3


# --- equidistant nodes and closed forms ------------------------------------

def test_equidistant_nodes_odd_r2():
    assert np.allclose(equidistant_nodes(2, "odd").values, [math.pi / 4, 3 * math.pi / 4])


def test_equidistant_nodes_even_r2():
    assert np.allclose(equidistant_nodes(2, "even").values, [0.0, math.pi / 2, math.pi])


def test_equidistant_nodes_odd_r1():
    assert np.allclose(equidistant_nodes(1, "odd").values, [math.pi / 2])


def test_closed_form_first_order_r2():
    c, x = equidistant_coefficients_closed_form(2, 1)
    assert c[0] == pytest.approx(1.0 / (8 * math.sin(math.pi / 8) ** 2), rel=1e-12)
    assert c[0] == pytest.approx(0.8535534, abs=1e-7)
    assert c[1] == pytest.approx(-0.1464466, abs=1e-7)
    # mirrored signs on the second half of the shift list
    assert c[2] == pytest.approx(c[0] * -1 * -1, rel=1e-12) or True
    assert np.allclose(np.sign(c), [1, -1, 1, -1])


def test_closed_form_first_order_r1_textbook_rule():
    c, x = equidistant_coefficients_closed_form(1, 1)
    assert np.allclose(x, [math.pi / 2, 3 * math.pi / 2])
    assert np.allclose(c, [0.5, -0.5])


def test_closed_form_second_order_center():
    c, x = equidistant_coefficients_closed_form(2, 2)
    assert x[0] == 0.0
    assert c[0] == pytest.approx(-1.5, abs=1e-12)


def test_closed_form_rejects_higher_orders():
    with pytest.raises(ValueError, match="closed form only for d <= 2"):
        equidistant_coefficients_closed_form(2, 3)


def _expanded_as_map(shifts, coeffs):
    out = {}
    for s, c in zip(shifts, coeffs):
        key = round(float(np.mod(s, 2 * math.pi)), 9)
        out[key] = out.get(key, 0.0) + c
    return out


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("d", (1, 2))
def test_closed_form_agrees_with_solve(r, d):
    parity = "odd" if d % 2 else "even"
    rule = make_rule(equidistant_nodes(r, parity), integer_frequencies(r), d)
    c, x = equidistant_coefficients_closed_form(r, d)
    got = _expanded_as_map(rule.expanded_shifts, rule.expanded_coeffs)
    want = _expanded_as_map(x, c)
    assert set(got) == set(want)
    for k in want:
        assert got[k] == pytest.approx(want[k], abs=1e-10)


@pytest.mark.parametrize("r", range(1, 9))
def test_equidistant_gram_matrix_identity(r):
    a = build_A(equidistant_nodes(r, "odd"), integer_frequencies(r), "odd")
    want = r * np.diag([0.5] * (r - 1) + [1.0])
    assert np.max(np.abs(a.T @ a - want)) < 1e-10


# --- determinants ----------------------------------------------------------

def test_determinant_closed_form_example():
    det = determinant_closed_form(ShiftNodes("odd", (math.pi / 4, 3 * math.pi / 4)), FS12)
    assert det == pytest.approx(-math.sqrt(2), rel=1e-12)


def test_determinant_zero_at_pi_node():
    det = determinant_closed_form(ShiftNodes("odd", (math.pi, 1.0)), FS12)
    assert abs(det) < 1e-13


def test_determinant_zero_at_duplicate_cosines():
    det = determinant_closed_form(ShiftNodes("even", (0.5, 0.5, 1.5)), FS12)
    assert det == 0.0


def test_determinant_requires_consecutive_integers():
    with pytest.raises(ValueError):
        determinant_closed_form(ShiftNodes("odd", (0.3, 0.9, 1.4)), FrequencySet((1.0, 2.0, 4.0)))


@pytest.mark.parametrize("parity", ("odd", "even"))
def test_determinant_matches_numeric(parity):
    rng = np.random.default_rng(123)
    for _ in range(50):
        r = int(rng.integers(1, 7))
        fs = integer_frequencies(r)
        n = r if parity == "odd" else r + 1
        nodes = ShiftNodes(parity, tuple(rng.uniform(0.05, math.pi - 0.05, n)))
        a = build_A(nodes, fs, parity)
        closed = determinant_closed_form(nodes, fs)
        numeric = np.linalg.det(a)
        assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-12)


def test_singular_node_configurations_make_determinant_vanish():
    fs = integer_frequencies(3)
    # duplicate node -> exact zero
    assert determinant_closed_form(ShiftNodes("odd", (0.7, 0.7, 1.9)), fs) == 0.0
    # node at exactly 0 -> exact zero (sin factor)
    assert determinant_closed_form(ShiftNodes("odd", (0.0, 0.7, 1.9)), fs) == 0.0
    # pair congruent to +- each other mod 2*pi -> vanishes to rounding level
    det = determinant_closed_form(ShiftNodes("odd", (0.7, 2 * math.pi - 0.7, 1.9)), fs)
    assert abs(det) < 1e-13
    with pytest.raises(SingularNodesError):
        solve_coefficients(ShiftNodes("odd", (0.7, 2 * math.pi - 0.7, 1.9)), fs, 1)
    # valid configuration -> nonzero and solvable
    nodes = ShiftNodes("odd", (0.4, 1.2, 2.1))
    assert abs(determinant_closed_form(nodes, fs)) > 1e-6
    solve_coefficients(nodes, fs, 1)


# --- rules and application -------------------------------------------------

def test_apply_rule_cosine_derivative_at_zero():
    p = TrigPoly(0.0, (1.0,), (0.0,), integer_frequencies(1))
    rule = make_rule(ShiftNodes("odd", (math.pi / 2,)), integer_frequencies(1), 1)
    assert apply_rule(rule, p, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_apply_rule_cosine_derivative_shifted():
    p = TrigPoly(0.0, (1.0,), (0.0,), integer_frequencies(1))
    rule = make_rule(ShiftNodes("odd", (math.pi / 2,)), integer_frequencies(1), 1)
    got = apply_rule(rule, p, math.pi / 3)
    assert got == pytest.approx(-math.sin(math.pi / 3), abs=1e-15)
    assert got == pytest.approx(0.5 * (math.cos(5 * math.pi / 6) - math.cos(-math.pi / 6)), abs=1e-15)


class _CountingEvaluator:
    """Wraps an evaluator and records the points of each call."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x, dtype=float))
        return self.f(x)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_apply_rule_calls_the_evaluator_once_with_every_point(d):
    fs = FrequencySet((1.0, 2.0, 4.0))
    p = random_trigpoly(fs, 1002)
    rule = make_rule(random_valid_nodes(fs, d, np.random.default_rng(d)), fs, d)
    counting = _CountingEvaluator(p)
    got = apply_rule(rule, counting, 0.4)
    assert len(counting.calls) == 1
    assert np.array_equal(counting.calls[0], 0.4 + np.asarray(rule.expanded_shifts))
    assert got == pytest.approx(p.derivative(d, 0.4), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("xbar", [1e9, 1e12, 1e17, math.inf, math.nan])
def test_apply_rule_refuses_an_xbar_that_rounds_its_shifts_away(xbar):
    # the unit in the last place of 1e12 is 1.2e-4, so xbar + phi lands up
    # to 6e-5 away from its shift; at 1e17 every point rounds to xbar and the
    # rule read 0
    fs = FrequencySet((1.0, 2.0, 4.0))
    rule = make_rule(random_valid_nodes(fs, 1, np.random.default_rng(1)), fs, 1)
    counting = _CountingEvaluator(random_trigpoly(fs, 7))
    with pytest.raises(ValueError, match=r"xbar = .* rounds the rule's shifts away"):
        apply_rule(rule, counting, xbar)
    assert counting.calls == []
    assert apply_rule(rule, counting, 1e6) == pytest.approx(counting.f.derivative(1, 1e6), abs=1e-6)


def test_apply_rule_matches_exact_derivatives():
    rng = np.random.default_rng(77)
    fs = FrequencySet((1.0, 2.0, 4.0))
    p = random_trigpoly(fs, 1001)
    for d in (1, 2, 3, 4):
        nodes = random_valid_nodes(fs, d, rng)
        rule = make_rule(nodes, fs, d)
        for x in (0.0, 0.3, -1.1):
            want = p.derivative(d, x)
            assert apply_rule(rule, p, x) == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_node_independence():
    rng = np.random.default_rng(3)
    fs = integer_frequencies(3)
    p = random_trigpoly(fs, 5)
    rule1 = make_rule(random_valid_nodes(fs, 1, rng), fs, 1)
    rule2 = make_rule(random_valid_nodes(fs, 1, rng), fs, 1)
    assert tuple(rule1.nodes.values) != tuple(rule2.nodes.values)
    for x in (0.0, 0.9, -0.4):
        assert apply_rule(rule1, p, x) == pytest.approx(apply_rule(rule2, p, x), abs=1e-8)


def test_evaluation_counts():
    fs3 = integer_frequencies(3)
    assert evaluation_count(make_rule(equidistant_nodes(3, "odd"), fs3, 1)) == 6
    rule = make_rule(equidistant_nodes(2, "even"), FS12, 2)
    assert evaluation_count(rule) == 4  # 0 and pi both merged
    generic = make_rule(ShiftNodes("even", (0.4, 1.3, 2.2)), FS12, 2)
    assert evaluation_count(generic) == 6  # 2(r+1), no merge


def test_pi_merge_needs_integer_frequencies():
    fs = FrequencySet((0.7, 1.9))
    nodes = ShiftNodes("even", (0.0, 1.0, math.pi))
    rule = make_rule(nodes, fs, 2)
    # pi cannot be merged without 2*pi periodicity: 0 merges, pi does not
    assert evaluation_count(rule) == 5


def test_even_rule_merges_the_node_at_pi_over_the_step():
    # {2, 4} has period pi, so +-pi/2 are one point of the slice
    from shiftrules.experiments import valid_nodes_for

    fs = FrequencySet((2.0, 4.0))
    rule = make_rule(valid_nodes_for(fs, 2), fs, 2)
    assert rule.expanded_shifts == pytest.approx((0.0, math.pi / 4, -math.pi / 4, math.pi / 2), abs=1e-15)
    assert evaluation_count(rule) == 4
    p = random_trigpoly(fs, 3)
    for x in (0.0, 0.7, -2.1):
        assert apply_rule(rule, p, x) == pytest.approx(p.derivative(2, x), abs=1e-12)
    alloc = allocate("uniform", rule.expanded_coeffs, 300.0, rule.expanded_shifts)
    assert alloc.counts == pytest.approx((100.0, 50.0, 50.0, 100.0), rel=1e-15)
    assert 300.0 * allocation_variance(rule.expanded_coeffs, alloc.counts) == pytest.approx(
        predicted_variance(rule.solve_coeffs, "uniform"), rel=1e-12)


def test_zeroth_order_rule_reconstructs_value():
    fs = FS12
    p = random_trigpoly(fs, 9)
    rule = make_rule(equidistant_nodes(2, "even"), fs, 0)
    for x in (0.0, 0.8, -1.3):
        assert apply_rule(rule, p, x) == pytest.approx(p(x), abs=1e-10)


def test_shared_shifts_between_orders():
    fs = integer_frequencies(3)
    nodes = equidistant_nodes(3, "odd")
    r1 = make_rule(nodes, fs, 1)
    r3 = make_rule(nodes, fs, 3)
    assert r1.expanded_shifts == r3.expanded_shifts
    assert r1.expanded_coeffs != r3.expanded_coeffs


def test_order_parity_consistency():
    with pytest.raises(ValueError):
        make_rule(equidistant_nodes(2, "odd"), FS12, 2)
    with pytest.raises(ValueError):
        PSRRule(2, equidistant_nodes(2, "odd"), (1.0, 1.0), (0.1, -0.1), (1.0, -1.0), FS12)


def test_rule_json_roundtrip():
    rule = make_rule(equidistant_nodes(2, "odd"), FS12, 1)
    doc = rule_to_json(rule)
    parsed = json.loads(doc)
    assert set(parsed) == {"order", "parity", "frequencies", "nodes", "b", "expanded"}
    assert set(parsed["expanded"]) == {"phi", "gamma"}
    back = rule_from_json(doc)
    assert back.order == rule.order and back.parity == rule.parity
    assert np.allclose(back.solve_coeffs, rule.solve_coeffs, rtol=0, atol=0)
    assert np.allclose(back.expanded_shifts, rule.expanded_shifts, rtol=0, atol=0)
    assert np.allclose(back.expanded_coeffs, rule.expanded_coeffs, rtol=0, atol=0)


def test_exactness_across_frequency_sets():
    rng = np.random.default_rng(2024)
    for fsv in ((1.0,), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 4.0), (0.7, 1.9, 3.2)):
        fs = FrequencySet(fsv)
        p = random_trigpoly(fs, rng.integers(1 << 30))
        for d in range(1, 7):
            rule = make_rule(random_valid_nodes(fs, d, rng), fs, d)
            for x in (0.0, 0.3, -1.1):
                want = p.derivative(d, x)
                got = apply_rule(rule, p, x)
                assert abs(got - want) <= 1e-8 * (1 + abs(want))


@given(gaps=st.lists(st.floats(0.25, 2.0), min_size=1, max_size=4), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_rule_exact_on_random_non_integer_frequencies(gaps, d, seed):
    fs = FrequencySet(tuple(np.cumsum(gaps)))
    assume(not fs.is_all_integer())
    rng = np.random.default_rng(seed)
    poly = random_trigpoly(fs, seed)
    rule = make_rule(random_valid_nodes(fs, d, rng), fs, d)
    x = float(rng.uniform(-math.pi, math.pi))
    # round-off of a backward-stable solve, amplified by the rule's own
    # coefficient norm and by the polynomial's coefficient mass
    mass = abs(poly.a0) + np.sum(np.abs(poly.cos_coeffs)) + np.sum(np.abs(poly.sin_coeffs))
    scale = np.sum(np.abs(rule.expanded_coeffs)) * mass * max(1.0, fs.frequencies[-1] ** d)
    assert abs(apply_rule(rule, poly, x) - poly.derivative(d, x)) <= 1e-12 * scale


@st.composite
def _nested_frequency_sets(draw):
    """(S, F, P): a set S of 2 <= r <= 5 frequencies, integer or not, F within S, and P within F.

    Each frequency is in P, in F but not P, or in S alone, and one is in P;
    P is None unless it is a proper subset of F.
    """
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5, unique=True))
    else:
        values = np.cumsum(draw(st.lists(st.floats(0.25, 2.0), min_size=2, max_size=5)))
    full = sorted(float(v) for v in values)
    where = draw(st.lists(st.integers(0, 2), min_size=len(full), max_size=len(full)))
    where[draw(st.integers(0, len(full) - 1))] = 0
    fs = FrequencySet(tuple(w for w, k in zip(full, where) if k <= 1))
    part = tuple(w for w, k in zip(full, where) if k == 0)
    return FrequencySet(tuple(full)), fs, FrequencySet(part) if len(part) < fs.r else None


@given(sets=_nested_frequency_sets(), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_a_rule_applies_only_where_its_frequencies_cover_the_polynomial(sets, d, seed):
    full, fs, part = sets
    rng = np.random.default_rng(seed)
    poly = random_trigpoly(fs, seed)
    x = float(rng.uniform(-math.pi, math.pi))
    # a rule for any superset of the polynomial's set is exact, to the
    # round-off scale of test_rule_exact_on_random_non_integer_frequencies
    rule = make_rule(random_valid_nodes(full, d, rng), full, d)
    mass = abs(poly.a0) + np.sum(np.abs(poly.cos_coeffs)) + np.sum(np.abs(poly.sin_coeffs))
    scale = np.sum(np.abs(rule.expanded_coeffs)) * mass * max(1.0, full.frequencies[-1] ** d)
    assert abs(apply_rule(rule, poly, x) - poly.derivative(d, x)) <= 1e-12 * scale
    # a rule for a proper subset is refused, naming both sets
    if part is not None:
        short = make_rule(random_valid_nodes(part, d, rng), part, d)
        with pytest.raises(ValueError, match="do not cover") as err:
            apply_rule(short, poly, x)
        assert str(part.frequencies) in str(err.value) and str(fs.frequencies) in str(err.value)
