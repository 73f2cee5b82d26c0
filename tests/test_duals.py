import os
import time
from itertools import combinations

import pytest

import orgrass.duals as duals
from orgrass.suites import suite_vanishing
from orgrass import (
    DualTable,
    Poly,
    dual_class,
    g,
    reduced_dual_class,
    reduced_dual_classes,
    scan_vanishing,
    verify_iterated_recurrence_batch,
)

from oracles import digit_rule_terms, truncated_geometric_inverse


def test_first_components_by_hand():
    # direct expansion of the convolution recurrence at k=3
    assert dual_class(3, 0) == Poly.one(3)
    assert dual_class(3, 1) == Poly.variable(3, 1)
    assert dual_class(3, 2) == Poly.parse(3, "w1^2 + w2")
    assert dual_class(3, 3) == Poly.parse(3, "w1^3 + w3")


def test_entries_are_homogeneous():
    for k in (2, 3, 4):
        for i in range(0, 25):
            p = dual_class(k, i)
            assert p.is_zero or p.homogeneous_degree == i


def test_geometric_series_oracle():
    for k in (2, 3, 4, 5):
        for i in range(41):
            assert dual_class(k, i) == truncated_geometric_inverse(k, i)


def test_convolution_recurrence_recomputed():
    for k in (3, 4):
        for i in range(1, 31):
            acc = Poly.zero(k)
            for m in range(1, min(k, i) + 1):
                acc = acc + Poly.variable(k, m) * dual_class(k, i - m)
            assert acc == dual_class(k, i)


def _embed(p: Poly, k: int) -> Poly:
    return Poly(k, [t + (0,) * (k - p.k) for t in p.terms])


def test_truncation_to_fewer_variables():
    # killing the top variables of the k-variable dual class gives the
    # r-variable dual class, so vanishing propagates downward in k
    for k, r in ((4, 3), (5, 3), (5, 4)):
        kill = set(range(r + 1, k + 1))
        for i in range(0, 61):
            reduced = dual_class(k, i).reduce_mod_vars(kill)
            assert reduced == _embed(dual_class(r, i), k)


def test_truncation_for_g():
    for k, r in ((4, 3), (5, 4)):
        kill = {1} | set(range(r + 1, k + 1))
        for i in range(0, 61):
            reduced = reduced_dual_class(k, i, kill)
            assert reduced == _embed(reduced_dual_class(r, i, {1}), k)


def test_g_point_values():
    assert g(4, 1).is_zero
    assert g(4, 5).is_zero
    assert g(5, 5) == Poly.variable(5, 5)
    assert g(3, 2) == Poly.variable(3, 2)


def test_g_matches_reduction_of_full_class():
    for k in (3, 4, 5):
        for i in range(0, 61):
            assert g(k, i) == dual_class(k, i).reduce_mod_vars({1})


def test_reduced_class_with_empty_kill_is_full_class():
    for i in range(0, 20):
        assert reduced_dual_class(3, i, set()) == dual_class(3, i)


def test_scan_zero_sets():
    assert scan_vanishing(3, {1}, 2, 100).zero_degrees == (5, 13, 29, 61)
    assert scan_vanishing(4, {1}, 2, 100).zero_degrees == (5, 13, 29, 61)
    assert scan_vanishing(5, {1}, 2, 100).zero_degrees == ()
    assert scan_vanishing(6, {1}, 2, 100).zero_degrees == ()


def test_scan_zero_sets_under_a_rule_mutant(monkeypatch):
    # the halving rule without its m = 0 summand, which even degrees need
    def no_constant(survivors, hi):
        flags = bytearray(hi + 1)
        for i in range(1, hi + 1):
            flags[i] = all(flags[(i - m) >> 1] for m in survivors if m <= i and m % 2 == i % 2)
        return flags

    monkeypatch.setattr(duals, "_zero_flags", no_constant)
    with pytest.raises(AssertionError):
        test_scan_zero_sets()
    rows = suite_vanishing(hi3=64, hi4=64, hi5=64, hi6=32)
    assert not all(row.ok for row in rows)


def test_rule_matches_kernel_on_every_kill_set():
    # keep_values streams the kernel beside the rule; both must give the same zeros
    for k in range(1, 7):
        hi = 120 if k < 6 else 80
        for r in range(k + 1):
            for killed in combinations(range(1, k + 1), r):
                scan = scan_vanishing(k, killed, 0, hi, keep_values=True)
                kernel_zeros = tuple(i for i, p in scan.values.items() if p.is_zero)
                assert scan.zero_degrees == kernel_zeros, (k, killed)


def test_kernel_mutant_raises_through_keep_values(monkeypatch):
    # a kernel that multiplies by the dense variable as if it were the implicit one
    original = duals._Kernel.add_product

    def no_shift(self, acc, m, e, state):
        if self.dense and m == self.dense:
            m = self.implicit
        original(self, acc, m, e, state)

    monkeypatch.setattr(duals._Kernel, "add_product", no_shift)
    for k in (3, 4, 5, 6):
        want = (1, 5, 13, 29, 61) if k < 5 else (1,)
        assert scan_vanishing(k, {1}, 0, 64).zero_degrees == want
        with pytest.raises(RuntimeError, match="degree"):
            scan_vanishing(k, {1}, 0, 64, keep_values=True)


def test_scan_reach():
    # 2^16 - 3 = 65533 is the last 2^t - 3 below 10^5
    assert scan_vanishing(3, {1}, 2, 10**5).zero_degrees == tuple((1 << t) - 3 for t in range(3, 17))
    assert scan_vanishing(6, {1}, 2, 10**5).zero_degrees == ()


def test_scan_from_one_includes_trivial_zero():
    assert scan_vanishing(3, {1}, 1, 10).zero_degrees == (1, 5)


def test_scan_values_z12():
    scan = scan_vanishing(4, {1, 2, 3}, 12, 12, keep_values=True)
    assert 12 not in scan.zero_degrees
    assert scan.values[12] == Poly.parse(4, "w4^3")


def test_scan_validates_range_and_kill():
    with pytest.raises(ValueError):
        scan_vanishing(3, {1}, 5, 4)
    with pytest.raises(ValueError):
        scan_vanishing(3, {4}, 0, 4)


def test_dual_class_mod_w1_vanishes_only_at_pow2_minus_3():
    assert not dual_class(3, 8).reduce_mod_vars({1}).is_zero
    assert dual_class(3, 13).reduce_mod_vars({1}).is_zero


def test_z12_from_the_two_generator_combination():
    g10 = g(4, 10)
    g12 = g(4, 12)
    combo = Poly.variable(4, 2) * g10 + g12
    assert combo.reduce_mod_vars({2, 3}) == Poly.parse(4, "w4^3")


def test_z_closed_form_small_t():
    for t in (4, 5, 6):
        i = 2**t - 4
        want = Poly.monomial(4, (0, 0, 0, 2 ** (t - 2) - 1))
        assert reduced_dual_class(4, i, {1, 2, 3}) == want


def test_h_two_term_recursion():
    # reductions of the k=5 dual classes mod w1, w2, w3, at i = 2^t - 3
    needed = set()
    for t in range(4, 9):
        needed.update({2**t - 3, 2 ** (t - 1) - 3, 3 * 2 ** (t - 3) - 3})
    h = reduced_dual_classes(5, {1, 2, 3}, needed)
    w4 = Poly.variable(5, 4)
    w5 = Poly.variable(5, 5)
    for t in range(4, 9):
        e = 2 ** (t - 3)
        lhs = h[2**t - 3]
        rhs = w4**e * h[2 ** (t - 1) - 3] + w5**e * h[3 * 2 ** (t - 3) - 3]
        assert lhs == rhs
        assert not lhs.is_zero


# mod w1 at k >= 4 the dense axis is w4, so w4^(2^s) is a shift by 2^s
DENSE_AXIS_CASES = [(5, 50, 1), (5, 61, 2), (5, 100, 3), (6, 40, 1), (6, 77, 2), (6, 130, 3)]


def test_iterated_recurrence_examples():
    cases = [(3, 13, 1), (3, 7, 0), (4, 29, 2)] + DENSE_AXIS_CASES
    assert verify_iterated_recurrence_batch(cases) == [True] * len(cases)


def test_iterated_recurrence_precondition():
    with pytest.raises(ValueError, match="1 \\+ k\\*2\\^s = 7"):
        verify_iterated_recurrence_batch([(3, 6, 1)])


def test_dense_exponent_mutation_fails_the_batch(monkeypatch):
    # a kernel that shifts by 1 on the dense axis whatever the exponent
    original = duals._Kernel.add_product

    def one_shift(self, acc, m, e, state):
        original(self, acc, m, 1 if m == self.dense else e, state)

    monkeypatch.setattr(duals._Kernel, "add_product", one_shift)
    assert False in verify_iterated_recurrence_batch(DENSE_AXIS_CASES)


def test_iterated_recurrence_batch_matches_single():
    cases = [(3, 13, 1), (4, 29, 2), (5, 50, 1), (3, 100, 3)]
    assert verify_iterated_recurrence_batch(cases) == [
        verify_iterated_recurrence_batch([case])[0] for case in cases
    ]


# -- packed kernel against the digit rule ---------------------------------

KILL_SETS = (
    frozenset(),
    frozenset({1}),
    frozenset({2}),
    frozenset({1, 2}),
    frozenset({1, 3}),
    frozenset({1, 2, 3}),
)
SAMPLED = list(range(0, 65)) + [97, 128, 200, 255, 256, 300, 383, 448, 511, 512, 600]


def _oracle_mismatches(k: int, killed: frozenset, degrees: list[int]) -> list[int]:
    got = reduced_dual_classes(k, killed, degrees)
    return [i for i in degrees if got[i].terms != digit_rule_terms(k, i, killed)]


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_reduced_classes_match_digit_rule(k):
    for killed in KILL_SETS:
        assert _oracle_mismatches(k, killed, SAMPLED) == [], (k, sorted(killed))


def test_long_scans_match_digit_rule():
    for k, hi in ((3, 4096), (4, 1024), (5, 512), (6, 256)):
        want = tuple(i for i in range(2, hi + 1) if not digit_rule_terms(k, i, {1}))
        assert scan_vanishing(k, {1}, 2, hi).zero_degrees == want
        kernel = duals._Kernel(k, frozenset({1}), hi)
        assert tuple(i for i, state in kernel.series() if i >= 2 and not state) == want


def test_axis_pair_rule():
    # (implicit, dense, keyed): dense is w_{2*s0} when it survives, else s1
    for k, killed, axes in (
        (3, set(), (1, 2, [3])),
        (3, {1}, (2, 3, [])),
        (5, {1}, (2, 4, [3, 5])),
        (6, {1, 2}, (3, 6, [4, 5])),
        (6, {2}, (1, 3, [4, 5, 6])),
        (3, {1, 2}, (3, 0, [])),
        (3, {1, 2, 3}, (0, 0, [])),
    ):
        kernel = duals._Kernel(k, frozenset(killed), 100)
        assert (kernel.implicit, kernel.dense, list(kernel._units)) == axes, (k, killed)


def test_fields_hold_the_smallest_keyed_variable():
    # mod w1 at k=5 the smallest keyed variable is w3, whose exponent
    # reaches hi // 3; t = 128 needs one bit more than hi // 4 does
    for t in (128, 255):
        p = reduced_dual_class(5, 3 * t, {1})
        assert (0, 0, t, 0, 0) in p.terms
        assert p.terms == digit_rule_terms(5, 3 * t, {1})


def test_dense_axis_mutation_is_caught(monkeypatch):
    # a kernel that multiplies by the dense variable as if it were the implicit one
    original = duals._Kernel.add_product

    def no_shift(self, acc, m, e, state):
        if self.dense and m == self.dense:
            m = self.implicit
        original(self, acc, m, e, state)

    monkeypatch.setattr(duals._Kernel, "add_product", no_shift)
    assert _oracle_mismatches(3, frozenset({1}), list(range(0, 65))) != []
    assert _oracle_mismatches(4, frozenset(), list(range(0, 65))) != []
    assert _oracle_mismatches(5, frozenset({1}), list(range(0, 65))) != []
    rows = suite_vanishing(hi3=64, hi4=64, hi5=64, hi6=32)
    assert not all(row.ok for row in rows)


def test_no_one_or_two_survivors():
    assert scan_vanishing(3, {1, 2, 3}, 0, 5).zero_degrees == (1, 2, 3, 4, 5)
    assert scan_vanishing(3, {1, 2}, 0, 12).zero_degrees == (1, 2, 4, 5, 7, 8, 10, 11)
    assert scan_vanishing(2, {1}, 0, 12).zero_degrees == (1, 3, 5, 7, 9, 11)
    assert reduced_dual_class(3, 9, {1, 2}) == Poly.parse(3, "w3^3")
    assert reduced_dual_class(3, 0, {1, 2, 3}) == Poly.one(3)


def test_kept_values_render_as_reduced_full_class():
    for k, killed in (
        (3, {1}),
        (4, {1, 2, 3}),
        (4, {2}),
        (5, {1}),
        (5, {1, 3}),
        (6, {1, 2}),
        (3, {1, 2}),
        (3, {1, 2, 3}),
        (2, set()),
    ):
        scan = scan_vanishing(k, killed, 0, 30, keep_values=True)
        for i in range(31):
            assert str(scan.values[i]) == str(dual_class(k, i).reduce_mod_vars(killed)), (k, killed, i)


def test_entry_is_built_once():
    table = DualTable(3)
    table.ensure(50)
    assert table.entry(37) is table.entry(37)
    assert table.entry(37).terms == digit_rule_terms(3, 37)


def test_table_refuses_degrees_past_its_packing():
    with pytest.raises(ValueError, match="limit"):
        DualTable(3).ensure(duals._TABLE_MAX_DEGREE + 1)


# -- cache ----------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    table = DualTable(3)
    table.ensure(12)
    lines = table.dump_lines()
    loaded = DualTable.parse_lines(lines)
    assert loaded is not None
    assert loaded.computed_up_to == 12
    assert all(loaded.entry(i) == table.entry(i) for i in range(13))


def test_cache_version_mismatch_discarded():
    table = DualTable(3)
    table.ensure(5)
    lines = table.dump_lines()
    lines[0] = "orgrass-duals/0"
    assert DualTable.parse_lines(lines) is None


def test_cache_corruption_discarded():
    table = DualTable(3)
    table.ensure(5)
    lines = table.dump_lines()
    lines[4] = "2\tw1^3"  # wrong degree for entry 2
    assert DualTable.parse_lines(lines) is None


def test_corrupted_cache_entry_rejected(tmp_path, monkeypatch):
    monkeypatch.setitem(duals._TABLES, 3, DualTable(3))
    duals.dual_table(3).ensure(8)
    path = duals.save_cache(3, str(tmp_path))
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[2 + 5].startswith("5\t")
    lines[2 + 5] = "5\tw1^5"  # well formed and homogeneous, but not the dual class
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    monkeypatch.setitem(duals._TABLES, 3, DualTable(3))
    assert duals.load_cache(3, str(tmp_path)) == -1
    assert dual_class(3, 5) == Poly.parse(3, "w1^5 + w1^2*w3 + w1*w2^2")
    assert dual_class(3, 5).terms == digit_rule_terms(3, 5)


def test_cache_save_load_files(tmp_path, monkeypatch):
    monkeypatch.setitem(duals._TABLES, 2, DualTable(2))
    duals.dual_table(2).ensure(9)
    path = duals.save_cache(2, str(tmp_path))
    assert os.path.exists(path)
    with open(path) as fh:
        assert fh.readline().strip() == duals.CACHE_FORMAT
    # a fresh process table picks the disk copy up
    monkeypatch.setitem(duals._TABLES, 2, DualTable(2))
    assert duals.load_cache(2, str(tmp_path)) == 9
    assert duals.dual_table(2).computed_up_to == 9
    assert not os.path.exists(os.path.join(str(tmp_path), ".lock"))


def test_cache_default_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv(duals.CACHE_ENV, str(tmp_path / "subdir"))
    assert duals.default_cache_dir() == str(tmp_path / "subdir")


def test_stale_lock_is_broken(tmp_path):
    lock = tmp_path / ".lock"
    lock.write_text("0")
    hour_ago = time.time() - 3600
    os.utime(lock, (hour_ago, hour_ago))
    with duals._DirLock(str(tmp_path), timeout=0.5):
        assert lock.read_text() == str(os.getpid())
    assert not lock.exists()
