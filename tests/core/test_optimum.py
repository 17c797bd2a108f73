"""The MaxEfficiency greedy + exchange welfare maximizer."""

import heapq
import itertools

import numpy as np
import pytest

from repro.core import max_efficiency_allocation
from repro.exceptions import MarketConfigurationError
from repro.utility import GridUtility2D, LinearUtility, LogUtility, SaturatingUtility
from repro.utility.base import EVAL_COUNTERS, UtilityFunction


class TestGreedyOptimum:
    def test_linear_utilities_winner_takes_all(self):
        # OPT for linear utilities: each resource goes wholly to the
        # player with the largest weight (see the proof of Theorem 1).
        utilities = [LinearUtility([3.0, 1.0]), LinearUtility([1.0, 2.0])]
        out = max_efficiency_allocation(utilities, [10.0, 10.0], [0.5, 0.5])
        np.testing.assert_allclose(out.allocations[0], [10.0, 0.0])
        np.testing.assert_allclose(out.allocations[1], [0.0, 10.0])
        assert out.efficiency == pytest.approx(50.0)

    def test_saturating_utilities_split_at_caps(self):
        # Each player only values the first 2 units of resource 0.
        utilities = [
            SaturatingUtility([1.0, 0.0], [2.0, 1.0]),
            SaturatingUtility([1.0, 0.0], [2.0, 1.0]),
        ]
        out = max_efficiency_allocation(utilities, [4.0, 1.0], [0.25, 0.25])
        assert out.allocations[0, 0] == pytest.approx(2.0)
        assert out.allocations[1, 0] == pytest.approx(2.0)
        assert out.efficiency == pytest.approx(2.0)

    def test_symmetric_log_split_evenly(self):
        utilities = [LogUtility([1.0], [1.0]) for _ in range(4)]
        out = max_efficiency_allocation(utilities, [8.0], [0.125])
        np.testing.assert_allclose(out.allocations[:, 0], 2.0, atol=0.2)

    def test_no_leftovers(self):
        # Even when nobody values a resource, everything is handed out.
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([1.0, 0.0])]
        out = max_efficiency_allocation(utilities, [4.0, 6.0], [1.0, 1.0])
        assert out.allocations[:, 1].sum() == pytest.approx(6.0)

    def test_per_player_caps_respected(self):
        utilities = [LinearUtility([5.0]), LinearUtility([1.0])]
        caps = np.array([[3.0], [100.0]])
        out = max_efficiency_allocation(utilities, [10.0], [1.0], per_player_caps=caps)
        assert out.allocations[0, 0] <= 3.0 + 1e-9
        # The remainder flows to the second-best player.
        assert out.allocations[1, 0] == pytest.approx(7.0)

    def test_complementary_resources_fixed_by_exchange(self):
        # Player 0's cache is worthless without power and vice versa
        # (bilinear-ish complement via a grid); the myopic greedy can
        # stall, the exchange pass must recover the joint optimum.
        grid = GridUtility2D(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([[0.0, 0.0], [0.0, 10.0]]),
        )
        utilities = [grid, LinearUtility([0.5, 0.5])]
        out = max_efficiency_allocation(utilities, [1.0, 1.0], [0.25, 0.25])
        # OPT = 10 (give player 0 both) vs 1.0 for giving player 1 all.
        assert out.efficiency == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation([LinearUtility([1.0])], [1.0], [1.0, 1.0])
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation([LinearUtility([1.0])], [1.0], [0.0])
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation(
                [LinearUtility([1.0])], [1.0], [1.0], per_player_caps=np.zeros((2, 1))
            )

    @pytest.mark.parametrize(
        "capacities, quanta, caps",
        [
            ([1.0], [np.nan], None),
            ([1.0], [np.inf], None),
            ([np.nan], [1.0], None),
            ([np.inf], [1.0], None),
            ([-1.0], [1.0], None),
            ([1.0], [1.0], [[np.nan]]),
            ([1.0], [1.0], [[np.inf]]),
            ([1.0], [1.0], [[-0.5]]),
        ],
    )
    def test_rejects_non_finite_or_negative_inputs(self, capacities, quanta, caps):
        with pytest.raises(MarketConfigurationError):
            max_efficiency_allocation(
                [LinearUtility([1.0])], capacities, quanta, per_player_caps=caps
            )

    def test_matches_analytic_concave_optimum(self):
        # For U_i = w_i * log(1 + r), the water-filling optimum equalizes
        # w_i / (1 + r_i); with w = (1, 2) and C = 3 the solution is
        # r = (2/3, 7/3).
        utilities = [LogUtility([1.0], [1.0]), LogUtility([2.0], [1.0])]
        out = max_efficiency_allocation(utilities, [3.0], [0.01])
        assert out.allocations[0, 0] == pytest.approx(2.0 / 3.0, abs=0.05)
        assert out.allocations[1, 0] == pytest.approx(7.0 / 3.0, abs=0.05)

    def test_beats_market_on_bbpc(self, bbpc_problem):
        from repro.core import EqualBudget, MaxEfficiency

        opt = MaxEfficiency().allocate(bbpc_problem)
        market = EqualBudget().allocate(bbpc_problem)
        assert opt.efficiency >= market.efficiency - 1e-6


# ----------------------------------------------------------------------
# Oracle: the scalar MaxEfficiency walk the lattice table replaced —
# one utility.value() per probe (memoized on the exact float point) and
# allocations kept as running float sums.  With power-of-two quanta the
# table-driven optimum must equal it bit for bit.
# ----------------------------------------------------------------------


def _oracle(utilities, capacities, quanta, per_player_caps=None):
    capacities = np.asarray(capacities, dtype=float)
    quanta = np.asarray(quanta, dtype=float)
    n, m = len(utilities), capacities.size
    memo = {}

    def value(i, allocation):
        key = (i, tuple(float(a) for a in allocation))
        if key not in memo:
            memo[key] = utilities[i].value(allocation)
        return memo[key]

    def at_cap(i, j, allocations):
        return (
            per_player_caps is not None
            and allocations[i, j] + quanta[j] > per_player_caps[i, j] + 1e-9
        )

    allocations = np.zeros((n, m))
    current = np.zeros(n)
    remaining = np.floor(capacities / quanta + 1e-9).astype(int)

    def gain(i, j):
        trial = allocations[i].copy()
        trial[j] += quanta[j]
        return value(i, trial) - current[i]

    counter = itertools.count()
    heap = []
    for i in range(n):
        current[i] = value(i, allocations[i])
        for j in range(m):
            if remaining[j] > 0 and not at_cap(i, j, allocations):
                heapq.heappush(heap, (-gain(i, j), next(counter), i, j))
    steps = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if remaining[j] <= 0 or at_cap(i, j, allocations):
            continue
        fresh = gain(i, j)
        if fresh <= 0.0:
            continue
        if heap and fresh < -heap[0][0] - 1e-15:
            heapq.heappush(heap, (-fresh, next(counter), i, j))
            continue
        allocations[i, j] += quanta[j]
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and not at_cap(i, j, allocations):
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    for j in range(m):
        k = 0
        guard = remaining[j] * n + n
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = k % n
            k += 1
            if at_cap(target, j, allocations):
                continue
            allocations[target, j] += quanta[j]
            remaining[j] -= 1

    def best_pair(gains, losses):
        order_gain = np.argsort(gains)[::-1]
        order_loss = np.argsort(losses)
        best, best_value = (None, None), -np.inf
        for r in order_gain[:2]:
            for d in order_loss[:2]:
                if r == d or not np.isfinite(gains[r]) or not np.isfinite(losses[d]):
                    continue
                if gains[r] - losses[d] > best_value:
                    best_value = gains[r] - losses[d]
                    best = (int(r), int(d))
        return best

    def exchange():
        moves, improved = 0, True
        while improved and moves < 20000:
            improved = False
            for j in range(m):
                q = quanta[j]
                gains = np.full(n, -np.inf)
                losses = np.full(n, np.inf)
                for i in range(n):
                    if not at_cap(i, j, allocations):
                        trial = allocations[i].copy()
                        trial[j] += q
                        gains[i] = value(i, trial) - current[i]
                    if allocations[i, j] >= q - 1e-9:
                        trial = allocations[i].copy()
                        trial[j] -= q
                        losses[i] = current[i] - value(i, trial)
                r, d = best_pair(gains, losses)
                if r is not None and gains[r] - losses[d] > 1e-12:
                    allocations[r, j] += q
                    allocations[d, j] -= q
                    current[r] += gains[r]
                    current[d] -= losses[d]
                    moves += 1
                    improved = True
        return moves

    def joint():
        moves, improved = 0, True
        while improved and moves < 5000:
            improved = False
            for donor in range(n):
                bundle = np.minimum(quanta, allocations[donor])
                if np.all(bundle <= 0.0):
                    continue
                loss = current[donor] - value(donor, allocations[donor] - bundle)
                best_gain, best = 0.0, None
                for r in range(n):
                    if r == donor:
                        continue
                    trial = allocations[r] + bundle
                    if per_player_caps is not None and np.any(
                        trial > per_player_caps[r] + 1e-9
                    ):
                        continue
                    g = value(r, trial) - current[r]
                    if g > best_gain:
                        best_gain, best = g, r
                if best is not None and best_gain - loss > 1e-12:
                    allocations[donor] -= bundle
                    allocations[best] += bundle
                    current[donor] -= loss
                    current[best] += best_gain
                    moves += 1
                    improved = True
        return moves

    steps += exchange()
    joint_moves = joint()
    if joint_moves:
        steps += joint_moves + exchange()
    final = np.array([value(i, allocations[i]) for i in range(n)])
    probes = [{point for j, point in memo if j == i} for i in range(n)]
    return allocations, final, steps, joint_moves, probes


def _assert_bitwise(utilities, capacities, quanta, caps=None):
    expected, expected_utils, expected_steps, joint_moves, _ = _oracle(
        utilities, capacities, quanta, caps
    )
    out = max_efficiency_allocation(utilities, capacities, quanta, per_player_caps=caps)
    assert out.steps == expected_steps
    assert out.allocations.tobytes() == expected.tobytes()
    assert out.utilities.tobytes() == expected_utils.tobytes()
    return joint_moves


def _random_grid_problem(seed, num_players=8):
    """Capped 2-resource grid problem; some players' grids are complements."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 3.0, 7)
    ys = np.linspace(0.0, 4.0, 9)
    utilities = []
    for i in range(num_players):
        steps = rng.uniform(0.0, 1.0, (xs.size, ys.size))
        if i % 2:
            values = np.cumsum(np.cumsum(steps, axis=0), axis=1)  # complements
        else:
            values = np.sqrt(xs[:, None] * rng.uniform(0.2, 2.0)) + np.sqrt(
                ys[None, :] * rng.uniform(0.2, 2.0)
            )
        utilities.append(GridUtility2D(xs, ys, values))
    capacities = np.array([6.0, 9.0])
    quanta = np.array([0.25, 0.125])
    caps = rng.uniform(0.3, 3.0, (num_players, 2))
    caps[::3] = np.round(caps[::3] / quanta) * quanta  # caps on the lattice
    caps[1::3] = np.round(caps[1::3] / quanta) * quanta - 1e-10  # within the 1e-9 slack
    return utilities, capacities, quanta, caps


class TestLatticeTableOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_capped_grids_bitwise(self, seed):
        _assert_bitwise(*_random_grid_problem(seed))

    def test_complement_joint_pass_bitwise(self):
        grid = GridUtility2D(
            np.array([0.0, 1.0]),
            np.array([0.0, 1.0]),
            np.array([[0.0, 0.0], [0.0, 10.0]]),
        )
        # Two identical complement players tie for every joint bundle:
        # the first of them must win, as in the scalar scan.
        utilities = [LinearUtility([0.25, 0.5]), grid, grid, LinearUtility([0.5, 0.5])]
        joint_moves = _assert_bitwise(utilities, [1.0, 1.0], [0.25, 0.25])
        assert joint_moves > 0

    def test_capped_leftovers_bitwise(self):
        # Nobody values resource 1: it is all handed out round-robin,
        # skipping players whose cap is reached.
        utilities = [LinearUtility([w, 0.0]) for w in (1.0, 2.0, 3.0)]
        caps = np.array([[2.0, 1.0], [2.0, 3.0], [0.5, 0.5]])
        _assert_bitwise(utilities, [2.0, 4.0], [0.5, 0.25], caps)

    def test_chip_problem_bitwise(self):
        from repro.cmp import ChipModel, cmp_64core
        from repro.workloads import generate_bundles

        bundle = generate_bundles("CPBN", 64, count=1, seed=1)[0]
        problem = ChipModel(cmp_64core(), bundle.apps).build_problem()
        _assert_bitwise(
            problem.utilities,
            problem.capacities,
            problem.quanta,
            problem.per_player_caps,
        )

    def test_default_quanta_close_to_oracle(self):
        # capacity / 256 is not a power of two: lattice points and running
        # float sums differ in the last bits, so only closeness holds.
        rng = np.random.default_rng(3)
        utilities = [
            LogUtility(rng.uniform(0.5, 2.0, 2), rng.uniform(0.5, 2.0, 2))
            for _ in range(5)
        ]
        capacities = np.array([3.0, 7.0])
        quanta = capacities / 256.0
        expected, expected_utils, _, _, _ = _oracle(utilities, capacities, quanta)
        out = max_efficiency_allocation(utilities, capacities, quanta)
        np.testing.assert_allclose(out.allocations, expected, rtol=0, atol=1e-9)
        np.testing.assert_allclose(out.utilities, expected_utils, rtol=1e-12)


class _ScalarCounting(UtilityFunction):
    """Wraps a utility, records every point it is evaluated at, and has
    only the generic scalar-loop ``value_batch``."""

    def __init__(self, inner):
        self.inner = inner
        self.num_resources = inner.num_resources
        self.points = []

    def value(self, allocation):
        self.points.append(tuple(float(a) for a in allocation))
        return self.inner.value(allocation)


class _Counting(_ScalarCounting):
    """A recording wrapper with a vectorized ``value_batch``."""

    def value_batch(self, allocations):
        self.points.extend(tuple(p) for p in np.asarray(allocations, dtype=float))
        return self.inner.value_batch(allocations)


class TestLatticeEvaluations:
    @pytest.mark.parametrize("seed", range(3))
    def test_each_point_once_and_inside_the_box(self, seed):
        utilities, capacities, quanta, caps = _random_grid_problem(seed)
        counting = [_Counting(u) for u in utilities]
        out = max_efficiency_allocation(counting, capacities, quanta, per_player_caps=caps)
        plain = max_efficiency_allocation(utilities, capacities, quanta, per_player_caps=caps)
        assert out.allocations.tobytes() == plain.allocations.tobytes()
        box = np.floor((np.minimum(caps, capacities) + 1e-9) / quanta)
        for i, u in enumerate(counting):
            points = np.array(u.points)
            units = np.rint(points / quanta)
            np.testing.assert_array_equal(units * quanta, points)  # on the lattice
            assert len(set(u.points)) == len(u.points)              # never twice
            assert np.all(units >= 0) and np.all(units <= box[i])

    def test_scalar_only_utility_evaluates_just_the_probes(self):
        # A tile of scalar calls would evaluate points nobody reads: a
        # utility without a vectorized value_batch is filled point by
        # point, exactly at the points the scalar walk probes.
        utilities, capacities, quanta, caps = _random_grid_problem(4)
        counting = [_ScalarCounting(u) for u in utilities]
        before = EVAL_COUNTERS.snapshot()
        out = max_efficiency_allocation(counting, capacities, quanta, per_player_caps=caps)
        delta = EVAL_COUNTERS.since(before)
        *expected, probes = _oracle(utilities, capacities, quanta, caps)
        assert out.allocations.tobytes() == expected[0].tobytes()
        for u, probed in zip(counting, probes):
            assert len(set(u.points)) == len(u.points)
            assert set(u.points) == probed
        # One-point tiles: the generic loop counts one scalar evaluation
        # per probe, where a 1024-point tile would count them all.
        assert delta["scalar_value_calls"] == sum(len(u.points) for u in counting)
