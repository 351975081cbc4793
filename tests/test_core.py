import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survbench.core import (
    RiskSetIndex,
    SurvivalCurve,
    SurvivalDataset,
    apply_standardization,
    cox_loss,
    cox_loss_and_grad,
    cross_validate,
    risk_set_sums,
    standardize_covariates,
    stratified_folds,
    stratified_cut,
    train_test_split,
)


def make_data(times, events, p=2, seed=0):
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=float)
    return SurvivalDataset(rng.standard_normal((times.size, p)), times,
                           np.asarray(events))


class TestSurvivalDataset:
    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError, match="positive"):
            make_data([1.0, 0.0], [1, 1])

    def test_rejects_bad_events(self):
        with pytest.raises(ValueError, match="0 or 1"):
            make_data([1.0, 2.0], [1, 2])

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="row mismatch"):
            SurvivalDataset(np.zeros((3, 2)), [1.0, 2.0], [1, 1])

    def test_immutable(self):
        data = make_data([1.0, 2.0], [1, 0])
        with pytest.raises(ValueError):
            data.time[0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_covariates(self, bad):
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="covariates must be finite"):
            SurvivalDataset(X, [1.0, 2.0, 3.0], [1, 0, 1])


def step_oracle(grid, probs, t):
    """A step curve by brute force: its value at the largest grid point
    <= t, 1 before the grid."""
    below = [k for k, g in enumerate(grid) if g <= t]
    return probs[below[-1]] if below else 1.0


class TestSurvivalCurve:
    def test_rejects_increasing_probs(self):
        with pytest.raises(ValueError, match="non-increasing"):
            SurvivalCurve(grid=[1.0, 2.0], probs=[0.5, 0.9])

    def test_step_evaluation(self):
        curve = SurvivalCurve(grid=[1.0, 2.0, 4.0], probs=[0.9, 0.5, 0.2])
        assert curve.at(0.5) == 1.0
        assert curve.at(1.0) == 0.9
        assert curve.at(3.0) == 0.5
        assert curve.at(10.0) == 0.2
        np.testing.assert_allclose(curve.at([0.5, 2.0]), [1.0, 0.5])

    def test_batch_length_and_indexing(self):
        probs = np.array([[0.9, 0.5], [0.8, 0.8], [0.7, 0.1]])
        curves = SurvivalCurve(grid=[1.0, 2.0], probs=probs)
        assert len(curves) == 3
        np.testing.assert_array_equal(curves[2].probs, [0.7, 0.1])
        np.testing.assert_array_equal(curves[-1].probs, [0.7, 0.1])
        assert [c.at(1.5) for c in curves] == [0.9, 0.8, 0.7]
        with pytest.raises(IndexError):
            curves[3]
        with pytest.raises(TypeError, match="subject axis"):
            len(curves[0])
        probs[0, 0] = 0.95  # the caller's array stays writable
        assert not curves.probs.flags.writeable

    def test_batch_rejects_increasing_row_past_first_block(self):
        probs = np.full((600, 3), 0.5)
        probs[555] = [0.2, 0.4, 0.3]
        with pytest.raises(ValueError, match="non-increasing"):
            SurvivalCurve(grid=[1.0, 2.0, 3.0], probs=probs)

    def test_batch_rejects_out_of_range(self):
        probs = np.full((4, 2), 0.5)
        probs[3, 1] = -0.01
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SurvivalCurve(grid=[1.0, 2.0], probs=probs)

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [0.8, np.nan]])
    def test_batch_rejects_nan(self, row):
        # a batch like this once scored C_td 0.0 and IBS NaN without error
        probs = np.array([[0.9, 0.4], row, [0.7, 0.2]])
        with pytest.raises(ValueError, match="NaN"):
            SurvivalCurve(grid=[1.0, 2.0], probs=probs)

    def test_rounding_past_unit_interval_is_clipped(self):
        curves = SurvivalCurve(grid=[1.0, 2.0],
                               probs=[[1.0 + 1e-13, 0.5], [0.5, -1e-13]])
        np.testing.assert_array_equal(curves.probs, [[1.0, 0.5], [0.5, 0.0]])

    def test_empty_batch_constructs(self):
        curves = SurvivalCurve(grid=[1.0, 2.0], probs=np.empty((0, 2)))
        assert len(curves) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_at_and_table_match_a_step_oracle(self, data):
        grid = np.array(sorted(data.draw(st.sets(
            st.floats(1e-3, 1e3, allow_nan=False), min_size=1, max_size=8))))
        n = data.draw(st.integers(0, 4))  # 0 draws a one-subject curve
        shape = (grid.size,) if n == 0 else (n, grid.size)
        size = grid.size * max(n, 1)
        levels = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                                    max_size=size))
        probs = -np.sort(-np.reshape(levels, shape), axis=-1)
        extra = data.draw(st.lists(st.floats(-10.0, 2e3, allow_nan=False),
                                   max_size=4))
        # on, between, just below, before and after the grid points
        t = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2,
                            np.nextafter(grid, -np.inf),
                            [0.0, -1.0, grid[0] / 2, grid[-1] * 2], extra])
        curve = SurvivalCurve(grid, probs)
        rows = probs.reshape(-1, grid.size)
        want = np.array([[step_oracle(grid, row, s) for s in t]
                         for row in rows]).reshape(shape[:-1] + t.shape)
        np.testing.assert_array_equal(curve.at(t), want)
        table, col = curve.table(t)
        np.testing.assert_array_equal(table[..., col], want)
        assert table.shape[-1] <= min(t.size, grid.size + 1)
        for a in (0, -1):
            assert np.array_equal(curve.at(t[a]), want[..., a])
        if n:
            picked = np.arange(n)[::-1]
            table, col = curve.table(t, picked[:, None])
            np.testing.assert_array_equal(table[:, col], want[picked])


def later(time):
    """The risk-set order of ``time``: sums over { l : T_l >= T_i }."""
    return RiskSetIndex.of(time).later


def risk_set_members(time):
    """Membership matrix M[i, l] = [l in R_i], read off risk_set_sums of
    one-hot rows."""
    return risk_set_sums(later(time), np.eye(len(time))) == 1.0


class TestRiskSets:
    def test_smallest_time_at_risk_of_everyone(self):
        members = risk_set_members([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(np.flatnonzero(members[1]), [0, 1, 2])

    def test_sizes_on_distinct_times(self):
        # enumerating the definition on times (1, 2, 3)
        sizes = risk_set_sums(later([1.0, 2.0, 3.0]), np.ones(3))
        np.testing.assert_array_equal(sizes, [3.0, 2.0, 1.0])

    def test_single_subject_self_membership(self):
        np.testing.assert_array_equal(risk_set_sums(later([5.0]), [2.5]),
                                      [2.5])

    def test_ties_mutually_at_risk(self):
        members = risk_set_members([2.0, 2.0, 1.0])
        assert members[1, 0] and members[0, 1]

    @given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_nesting_and_self_membership(self, times):
        time = np.asarray(times)
        members = risk_set_members(time)
        for i in range(time.size):
            assert members[i, i]
            for j in range(time.size):
                if time[i] < time[j]:
                    assert np.all(members[i] >= members[j])

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                    max_size=15), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_brute_force_sum(self, times, seed):
        # small integer times force many ties
        time = np.asarray(times, dtype=float)
        values = np.random.default_rng(seed).standard_normal((time.size, 2))
        want = np.array([values[time >= t].sum(axis=0) for t in time])
        np.testing.assert_allclose(risk_set_sums(later(time), values), want,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(risk_set_sums(later(time), values[:, 0]),
                                   want[:, 0], rtol=1e-12, atol=1e-12)



def sorted_per_call(time, values):
    """risk_set_sums with its own argsort and tie groups on every call."""
    time = np.asarray(time, dtype=float)
    values = np.asarray(values, dtype=float)
    order = np.argsort(-time, kind="stable")
    t_s = time[order]
    cum = np.cumsum(values[order], axis=0)
    group_id = np.concatenate([[0], np.cumsum(np.diff(t_s) != 0)])
    last_of_group = np.concatenate([np.nonzero(np.diff(t_s))[0],
                                    [time.size - 1]])
    out = np.empty_like(cum)
    out[order] = cum[last_of_group[group_id]]
    return out


class TestRiskSetIndex:
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=30), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_indexed_sums_equal_sorting_per_call(self, times, seed):
        # integer times in 1..4 make most subjects share a time
        rng = np.random.default_rng(seed)
        time = np.asarray(times, dtype=float)
        index = RiskSetIndex.of(time)
        for shape in ((time.size,), (time.size, 5), (time.size, 3)):
            values = rng.standard_normal(shape)
            np.testing.assert_array_equal(
                risk_set_sums(index.later, values),
                sorted_per_call(time, values))
            np.testing.assert_array_equal(
                risk_set_sums(index.earlier, values),
                sorted_per_call(-time, values))

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=30), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_indexed_kernel_equals_sorting_per_call(self, times, seed):
        # the kernel on a dataset's index keeps the bits of the one-shift
        # kernel that sorted the times on every call
        rng = np.random.default_rng(seed)
        time = np.asarray(times, dtype=float)
        event = rng.integers(0, 2, time.size)
        eta = rng.normal(0.0, 3.0, time.size)
        events = event == 1
        shift = eta.max()
        w = np.exp(eta - shift)
        denom = sorted_per_call(time, w)
        want_loss = float(np.sum(np.log(denom[events]) + shift - eta[events]))
        inv = np.where(events, 1.0 / denom, 0.0)
        want_d = w * sorted_per_call(-time, inv) - events.astype(float)
        index = make_data(time, event).risk_index
        loss, d_eta = cox_loss_and_grad(eta, index, event)
        assert loss == want_loss and cox_loss(eta, index, event) == want_loss
        np.testing.assert_array_equal(d_eta, want_d)

    def test_subset_builds_its_own_index(self):
        data = make_data([3.0, 1.0, 2.0, 2.0], [1, 0, 1, 1])
        index = data.risk_index
        assert data.risk_index is index
        part = data.subset([3, 0])
        assert part.risk_index is not index
        np.testing.assert_array_equal(part.risk_index.later.order, [1, 0])
        np.testing.assert_array_equal(risk_set_sums(part.risk_index.later,
                                                    [1.0, 1.0]), [2.0, 1.0])


def cox_loss_oracle(eta, time, event):
    """-pll and d(-pll)/d eta by enumerating every (event, risk-set member)
    pair: O(n^2), no shift, no cumulative sums."""
    n = eta.size
    loss, d_eta = 0.0, -event.astype(float)
    for i in range(n):
        if event[i] != 1:
            continue
        risk = [l for l in range(n) if time[l] >= time[i]]
        s_i = sum(np.exp(eta[l]) for l in risk)
        loss -= eta[i] - np.log(s_i)
        for l in risk:
            d_eta[l] += np.exp(eta[l]) / s_i
    return loss, d_eta


def log_space_oracle(eta, time, event):
    """-pll and its eta-derivative with each risk set shifted by its own
    maximum: O(n^2), no cumulative sums, every term formed in log space."""
    loss, d_eta = 0.0, -event.astype(float)
    for i in np.flatnonzero(event == 1):
        risk = np.flatnonzero(time >= time[i])
        top = eta[risk].max()
        log_s = top + np.log(np.sum(np.exp(eta[risk] - top)))
        loss += log_s - eta[i]
        d_eta[risk] += np.exp(eta[risk] - log_s)
    return loss, d_eta


class TestCoxLoss:
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                    max_size=20), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_pair_enumeration_on_ties(self, times, seed):
        # integer times in 1..4 make most subjects share a time
        rng = np.random.default_rng(seed)
        time = np.asarray(times, dtype=float)
        event = rng.integers(0, 2, time.size)
        eta = rng.normal(0.0, 2.0, time.size)
        want_loss, want_d = cox_loss_oracle(eta, time, event)
        loss, d_eta = cox_loss_and_grad(eta, RiskSetIndex.of(time), event)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(d_eta, want_d, rtol=1e-10, atol=1e-12)
        assert cox_loss(eta, RiskSetIndex.of(time), event) == loss

    def test_all_censored_is_zero(self):
        eta = np.array([0.3, -1.2, 2.0])
        time = np.array([1.0, 2.0, 2.0])
        event = np.zeros(3, dtype=int)
        index = RiskSetIndex.of(time)
        loss, d_eta = cox_loss_and_grad(eta, index, event)
        assert loss == 0.0 and cox_loss(eta, index, event) == 0.0
        np.testing.assert_array_equal(d_eta, np.zeros(3))

    def test_finite_past_exp_underflow(self):
        # e^{-900} underflows to 0, so one shift by the largest eta would
        # leave the latest risk sets empty in floating point; eta falls with
        # time, so the latest risk set holds only the smallest values
        rng = np.random.default_rng(0)
        cases = [(np.array([0.0, -450.0, -900.0]), np.array([1.0, 2.0, 3.0]),
                  np.ones(3, dtype=int)),
                 # -pll = log(1 + e^{-900}) + log(e^{-900}) + 900, about 0
                 (np.array([0.0, -900.0]), np.array([1.0, 2.0]),
                  np.array([1, 1]))]
        for spread in (450.0, 900.0):
            for _ in range(3):
                time = rng.integers(1, 6, 12).astype(float)
                event = rng.integers(0, 2, 12)
                event[np.argmax(time)] = 1
                eta = (-spread * (time - 1.0) / 4.0
                       + rng.uniform(-1.0, 1.0, 12))
                cases.append((eta, time, event))
        for eta, time, event in cases:
            want_loss, want_d = log_space_oracle(eta, time, event)
            loss, d_eta = cox_loss_and_grad(eta, RiskSetIndex.of(time), event)
            assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(d_eta, want_d, rtol=1e-10, atol=1e-12)
            assert cox_loss(eta, RiskSetIndex.of(time), event) == loss

    def test_lists_score_as_arrays(self):
        eta, event = [0.3, -900.0, 1.1], [1, 1, 0]
        index = RiskSetIndex.of([1, 2, 2])
        want = cox_loss_and_grad(np.asarray(eta), index, np.asarray(event))
        got = cox_loss_and_grad(eta, index, event)
        assert got[0] == want[0] and cox_loss(eta, index, event) == want[0]
        np.testing.assert_array_equal(got[1], want[1])
        pair = RiskSetIndex.of([1, 2])
        assert cox_loss([0, -900], pair, [1, 1]) == cox_loss(
            np.array([0.0, -900.0]), pair, np.array([1, 1]))

    def test_value_only_call_does_one_risk_set_sum(self, monkeypatch):
        import survbench.core as core

        calls = []

        def counted(order, values):
            calls.append(1)
            return risk_set_sums(order, values)

        monkeypatch.setattr(core, "risk_set_sums", counted)
        eta, time, event = np.zeros(4), np.arange(1.0, 5.0), np.ones(4, int)
        cox_loss(eta, RiskSetIndex.of(time), event)
        assert len(calls) == 1
        cox_loss_and_grad(eta, RiskSetIndex.of(time), event)
        assert len(calls) == 3


class TestStandardize:
    def test_constant_column_zeroed(self):
        Z, mean, scale = standardize_covariates(np.array([[1.0], [1.0], [1.0]]))
        np.testing.assert_array_equal(Z, np.zeros((3, 1)))
        assert scale[0] == np.inf

    @pytest.mark.parametrize("value", [0.1, 1 / 3, -2.9, 123456.789, 3e300])
    @pytest.mark.parametrize("n", [3, 7, 40])
    def test_constant_column_with_a_rounded_mean_zeroed(self, value, n):
        # the mean of n copies of 0.1 rounds away from 0.1, which leaves
        # every row the same tiny residue and an sd of that residue's size
        Z, _, scale = standardize_covariates(np.full((n, 1), value))
        np.testing.assert_array_equal(Z, np.zeros((n, 1)))
        assert scale[0] == np.inf

    @pytest.mark.parametrize("delta", [2.0 ** -52, -(2.0 ** -53), 1e-15])
    def test_near_constant_column_is_constant(self, delta):
        # one row a few ulps off: an sd of ~1e-17 would otherwise blow that
        # row up to a one-subject indicator of height sqrt(n) - 1/sqrt(n)
        X = np.random.default_rng(7).standard_normal((40, 2))
        X[:, 1] = 1.0
        Z_const, mean, scale = standardize_covariates(X)
        X[5, 1] += delta
        Z, _, scale_near = standardize_covariates(X)
        np.testing.assert_array_equal(Z, Z_const)
        np.testing.assert_array_equal(scale_near, scale)
        assert scale[1] == np.inf and mean[1] == 1.0

    def test_spread_above_the_tolerance_is_kept(self):
        X = np.ones((40, 1))
        X[5, 0] += 1e-13
        Z, _, scale = standardize_covariates(X)
        assert 0 < scale[0] < 1e-13 and Z[5, 0] > 6

    def test_two_point_column_sample_sd(self):
        # mean 1, sample sd sqrt(2) with the n-1 denominator
        Z, _, _ = standardize_covariates(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(Z[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3))
        Z, _, _ = standardize_covariates(X)
        Z2, _, _ = standardize_covariates(Z)
        np.testing.assert_allclose(Z2, Z, atol=1e-12)

    def test_stored_transform_reproduces(self):
        # the transform a fit stores is the one that made Z, bit for bit,
        # also on a constant and a near-constant column
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 4)) * 3 + 1
        near = np.full(25, -2.9)
        near[7] += 2.0 ** -51
        X = np.column_stack([X, np.full(25, 0.1), near])
        Z, mean, scale = standardize_covariates(X)
        assert np.isinf(scale[4:]).all() and np.isfinite(scale[:4]).all()
        assert apply_standardization(X, mean, scale).tobytes() == Z.tobytes()

    def test_constant_columns_map_any_finite_row_to_zero(self):
        X = np.random.default_rng(8).standard_normal((20, 3))
        X[:, 0], X[:, 2] = 5.0, 1.0 / 3.0
        X[4, 2] += 2.0 ** -54
        _, mean, scale = standardize_covariates(X)
        new = np.array([[-1e300, 0.3, 7.0], [0.0, -2.0, -1e-300],
                        [5.0, 1e5, 1.0 / 3.0]])
        Z_new = apply_standardization(new, mean, scale)
        np.testing.assert_array_equal(Z_new[:, [0, 2]], 0.0)
        np.testing.assert_array_equal(Z_new[:, 1],
                                      (new[:, 1] - mean[1]) / scale[1])

    def test_bits_match_the_unscaled_moments(self):
        # scaling a column by a power of two is exact on ordinary data
        rng = np.random.default_rng(5)
        for k in range(100):
            X = (rng.standard_normal((20, 4)) * 10.0 ** rng.uniform(-6, 6, 4)
                 + (k % 2) * rng.uniform(-5, 5, 4))
            Z, mean, scale = standardize_covariates(X)
            want_mean, want_scale = X.mean(axis=0), X.std(axis=0, ddof=1)
            np.testing.assert_array_equal(mean, want_mean)
            np.testing.assert_array_equal(scale, want_scale)
            np.testing.assert_array_equal(Z, (X - want_mean) / want_scale)

    def test_allocates_one_matrix_of_the_input_size(self):
        # the moments are taken in the matrix Z is then written into: no
        # scaled, centred or squared copy is held beside it
        X = np.random.default_rng(9).standard_normal((400, 300))
        tracemalloc.start()
        try:
            standardize_covariates(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * X.nbytes, peak / X.nbytes

    @pytest.mark.parametrize("factor", [1e160, 1e300])
    def test_columns_near_the_float_limit_keep_their_shape(self, factor):
        # an unscaled sum of squares overflows here, and the sd with it
        X = np.random.default_rng(6).standard_normal((40, 3))
        Z, _, _ = standardize_covariates(X)
        Z_big, _, scale = standardize_covariates(X * factor)
        assert np.all(np.isfinite(scale))
        np.testing.assert_allclose(Z_big, Z, rtol=0, atol=2e-15)


class TestSplit:
    def test_stratified_counts(self):
        data = make_data(np.arange(1.0, 11.0), [1] * 5 + [0] * 5)
        train, test, split = train_test_split(data, 0.8, seed=7)
        assert train.n == 8 and test.n == 2
        assert abs(train.event.mean() - 0.5) <= 1 / 8
        assert abs(test.event.mean() - 0.5) <= 1 / 2

    def test_deterministic(self):
        data = make_data(np.arange(1.0, 21.0), [1, 0] * 10)
        _, _, s1 = train_test_split(data, 0.7, seed=11)
        _, _, s2 = train_test_split(data, 0.7, seed=11)
        np.testing.assert_array_equal(s1.train, s2.train)
        np.testing.assert_array_equal(s1.test, s2.test)

    def test_empty_part_errors(self):
        data = make_data(np.arange(1.0, 11.0), [1] * 5 + [0] * 5)
        with pytest.raises(ValueError, match="empty part"):
            train_test_split(data, 0.999, seed=0)

    def test_parts_partition_indices(self):
        data = make_data(np.arange(1.0, 16.0), [1, 0, 1] * 5)
        _, _, split = train_test_split(data, 0.6, seed=2)
        combined = np.sort(np.concatenate([split.train, split.test]))
        np.testing.assert_array_equal(combined, np.arange(15))


strata_lists = st.lists(st.integers(0, 1), min_size=1, max_size=40)


class TestStratifiedSplitter:
    @given(strata_lists, st.floats(0.0, 1.0), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_head_partitions_with_rounded_stratum_sizes(self, strata, fraction,
                                                         seed):
        strata = np.asarray(strata)
        head, tail = stratified_cut(strata, fraction,
                                    np.random.default_rng(seed))
        np.testing.assert_array_equal(np.sort(np.concatenate([head, tail])),
                                      np.arange(strata.size))
        assert np.all(np.diff(head) > 0) and np.all(np.diff(tail) > 0)
        for value in (0, 1):
            size = int(np.sum(strata == value))
            assert np.sum(strata[head] == value) == round(fraction * size)

    @given(strata_lists, st.integers(1, 6), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fold_sizes_balanced_within_stratum(self, strata, nfolds, seed):
        strata = np.asarray(strata)
        labels = stratified_folds(strata, nfolds, np.random.default_rng(seed))
        assert labels.shape == strata.shape
        assert labels.min() >= 0 and labels.max() < nfolds
        for value in (0, 1):
            counts = np.bincount(labels[strata == value], minlength=nfolds)
            assert counts.max() - counts.min() <= 1

    @given(strata_lists, st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_deterministic_given_seed(self, strata, seed):
        strata = np.asarray(strata)
        head_a, tail_a = stratified_cut(strata, 0.3, np.random.default_rng(seed))
        head_b, tail_b = stratified_cut(strata, 0.3, np.random.default_rng(seed))
        np.testing.assert_array_equal(head_a, head_b)
        np.testing.assert_array_equal(tail_a, tail_b)
        np.testing.assert_array_equal(
            stratified_folds(strata, 3, np.random.default_rng(seed)),
            stratified_folds(strata, 3, np.random.default_rng(seed)))


# Index arrays recorded from the four per-stratum helpers the splitter
# replaced (the train/test split, the Lasso CV folds and the coxnnet CV
# folds and validation holdout); the splitter must draw them identically.
EVENTS = np.array([1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1])


class TestSplitterRecordedDraws:
    def test_train_test_split(self):
        data = make_data(np.arange(1.0, EVENTS.size + 1), EVENTS, p=1)
        _, _, split = train_test_split(data, 0.7, seed=3)
        np.testing.assert_array_equal(
            split.train, [2, 3, 4, 5, 7, 9, 10, 12, 13, 14, 15, 16])
        np.testing.assert_array_equal(split.test, [0, 1, 6, 8, 11])

    def test_train_test_split_with_empty_stratum(self):
        data = make_data(np.arange(1.0, 10.0), np.ones(9, dtype=int), p=1)
        _, _, split = train_test_split(data, 0.6, seed=4)
        np.testing.assert_array_equal(split.train, [0, 1, 2, 6, 8])
        np.testing.assert_array_equal(split.test, [3, 4, 5, 7])

    def test_lasso_folds(self):
        labels = stratified_folds(EVENTS, 3, np.random.default_rng(5))
        np.testing.assert_array_equal(
            labels, [2, 2, 0, 1, 0, 1, 2, 2, 0, 0, 0, 0, 1, 1, 2, 1, 1])

    def test_network_folds_and_next_draw(self):
        rng = np.random.default_rng(7)
        labels = stratified_folds(EVENTS, 3, rng)
        np.testing.assert_array_equal(
            labels, [0, 2, 1, 1, 1, 0, 2, 1, 2, 0, 2, 1, 0, 0, 2, 0, 1])
        assert int(rng.integers(2 ** 31)) == 733587778

    def test_validation_holdout_and_next_draw(self):
        rng = np.random.default_rng(9)
        val, train = stratified_cut(EVENTS, 0.25, rng)
        np.testing.assert_array_equal(
            train, [0, 1, 2, 4, 5, 6, 7, 9, 10, 12, 13, 16])
        np.testing.assert_array_equal(val, [3, 8, 11, 14, 15])
        assert int(rng.integers(2 ** 31)) == 57096725


def recorded_folds(candidates, labels, event, nfolds, table):
    """``cross_validate`` with fold scores read from ``table`` (one row per
    fold); returns the choice, the folds scored and the warnings."""
    scored = []

    def fold_scores(fold, held):
        scored.append(fold)
        np.testing.assert_array_equal(held, labels == fold)
        return table[fold]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        choice = cross_validate(candidates, labels, event, nfolds, fold_scores)
    return choice, scored, [str(w.message) for w in caught]


class TestCrossValidate:
    def test_sums_folds_and_keeps_first_best(self):
        # per-fold scores (rows: folds, columns: candidates); candidates 1
        # and 2 tie on the sum, so the first of them wins
        table = np.array([[0.1, 0.5, 0.2], [0.3, 0.2, 0.5]])
        choice, scored, _ = recorded_folds([0.0, 1.0, 2.0],
                                           np.array([0, 1, 0, 1]),
                                           np.ones(4), 2, table)
        assert choice == 1.0 and scored == [0, 1]

    def test_skipped_fold_does_not_count(self):
        # fold 0 holds no event; counted, its scores would pick candidate 0
        table = np.array([[0.9, 0.1], [0.2, 0.3], [0.1, 0.1]])
        choice, scored, messages = recorded_folds(
            [0.0, 1.0], np.array([0, 0, 1, 1, 2, 2]),
            np.array([0, 0, 1, 0, 1, 0]), 3, table)
        assert choice == 1.0 and scored == [1, 2]
        assert messages == ["fold 0 has no events on one side; skipped"]

    def test_fold_masks(self):
        labels = np.array([2, 0, 1, 0, 2, 1])
        _, scored, _ = recorded_folds([1.0], labels, np.ones(6), 3,
                                      np.zeros((3, 1)))
        assert scored == [0, 1, 2]

    def test_negated_loss_keeps_argmin_tie_rule(self):
        losses = np.array([0.4, 0.2, 0.2, 0.3])
        choice, _, _ = recorded_folds([0.0, 1.0, 2.0, 3.0], np.array([0, 1]),
                                      np.ones(2), 2, np.stack([-losses] * 2))
        assert choice == float(np.argmin(losses))

    @pytest.mark.parametrize("event, scored", [
        # held-out side without an event: fold 0
        ([0, 0, 1, 0, 1, 0], [1, 2]),
        # training side without an event: fold 0 holds every event, which
        # leaves folds 1 and 2 none on their held-out side
        ([1, 1, 0, 0, 0, 0], []),
        ([1, 0, 0, 1, 0, 1], [0, 1, 2]),
    ])
    def test_skips_a_fold_without_events_on_one_side(self, event, scored):
        choice, got, messages = recorded_folds(
            [0.5, 1.5], np.array([0, 0, 1, 1, 2, 2]), np.array(event), 3,
            np.tile([0.0, 1.0], (3, 1)))
        assert got == scored
        skipped = [f"fold {fold} has no events on one side; skipped"
                   for fold in range(3) if fold not in scored]
        if scored:
            assert messages == skipped and choice == 1.5
        else:
            assert messages == skipped + [
                "every fold was skipped; using the first candidate 0.5"]
            assert choice == 0.5
