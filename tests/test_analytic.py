"""Closed-form picture-frame solution tests.

Verifies: load-program parsing and validation, the direction-aware elastic
range, the interval consistency solve against a bisection oracle, a
return-map batch of interval points against the one-point solve bit for
bit, exact interval chaining (splitting a monotone leg anywhere changes
nothing), the pull-force formula, curve generation over multi-leg
programs, legs that load in the same direction against the virgin
bisection and the stepped chain, a slip failure's leg and step in a
program, CSV round trips, the CSV writer against numpy's on 1-D and on broadcast
columns, and the CSV reader against the writer bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wovenshear import (
    CURVE_COLUMNS,
    ConvergenceError,
    IntervalState,
    LoadProgram,
    ShearCurve,
    advance_interval,
    crosshead_rate,
    f_iso,
    frame_force,
    gamma_to_theta,
    interval_solve,
    program_theta_grid,
    return_map_batch,
    run_program,
)
from wovenshear import material
from wovenshear.analytic import _CSV_BLOCK_ROWS, _read_csv, _write_csv

import oracles


class TestLoadProgram:
    def test_rejects_empty_and_repeated(self):
        with pytest.raises(ValueError):
            LoadProgram(targets=())
        with pytest.raises(ValueError):
            LoadProgram.from_gamma_degrees([20.0, 20.0])
        with pytest.raises(ValueError):
            LoadProgram.from_gamma_degrees([0.0])     # zero-length first leg

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            LoadProgram.from_gamma_degrees([95.0])
        with pytest.raises(ValueError):
            LoadProgram(targets=(np.pi / 2.0, 0.4))   # theta must move


class TestYieldAngle:
    """The elastic range of an interval, as the last increment the
    interval solve takes elastically."""

    def test_virgin_glass_exact(self, glass_params):
        ya = oracles.flag_onset(
            lambda x: interval_solve(x, IntervalState(), glass_params).plastic,
            0.0, 1.0)
        assert abs(ya - 2.0e-5) <= 1e-15

    def test_widens_with_carried_stress(self, soft_params):
        st0 = IntervalState()
        st1 = advance_interval(st0, 0.3, soft_params)
        assert st1.tau0 > 0.0
        # the range of a reversal, against the carried stress
        ya = oracles.flag_onset(
            lambda x: interval_solve(-x, st1, soft_params).plastic, 0.0, 1.0)
        expect = (f_iso(st1.q0, soft_params) + st1.tau0) / soft_params.mu_f
        assert ya == pytest.approx(expect, rel=1e-15)


class TestIntervalSolve:
    def test_zero_increment_is_identity(self, soft_params):
        st0 = IntervalState(tau0=0.05, q0=0.2)
        sol = interval_solve(0.0, st0, soft_params)
        assert sol.tau == st0.tau0 and not sol.plastic
        assert sol.q == st0.q0

    def test_elastic_branch_exact(self, soft_params):
        sol = interval_solve(0.05, IntervalState(), soft_params)
        assert not sol.plastic
        assert sol.tau == soft_params.mu_f * 0.05

    def test_zero_yield_immediately_plastic(self, demo_params):
        sol = interval_solve(1e-6, IntervalState(), demo_params)
        assert sol.plastic
        assert sol.q > 0.0

    def test_plastic_frozen_oracle(self, demo_params):
        sol = interval_solve(0.3, IntervalState(), demo_params)
        assert sol.q == pytest.approx(
            oracles.DELTA_ALPHA_DEMO_PHIBAR0P3, rel=1e-12)
        assert sol.tau == pytest.approx(oracles.TAU_DEMO_PHIBAR0P3, rel=1e-12)

    def test_matches_bisection_oracle(self, glass_params, rng):
        p = glass_params
        for pb in rng.uniform(0.05, 0.7, size=10):
            sol = interval_solve(float(pb), IntervalState(), p)
            root = oracles.bisect_root(
                lambda x: p.mu_f * (pb - x) - oracles.f_iso_ref(
                    x, p.tau_y, p.A_h, p.a_h, p.B_h, p.b_h, p.C_h, p.c_h),
                0.0, float(pb))
            assert sol.q == pytest.approx(root, rel=1e-10)

    def test_matches_return_map_one_step(self, glass_params):
        # single backward-Euler step from virgin state solves the same
        # consistency equation
        phis = (0.1, 0.45, -0.3)
        out = return_map_batch(phis, np.zeros(3), np.zeros(3), glass_params)
        for phi, tau, q in zip(phis, out.tau, out.q):
            sol = interval_solve(phi, IntervalState(), glass_params)
            assert sol.tau == pytest.approx(tau, rel=1e-12)
            assert sol.q == pytest.approx(q, rel=1e-12, abs=1e-15)

    @given(phi_bar=st.floats(0.02, 0.75), frac=st.floats(0.05, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_splitting_an_interval_is_exact(self, phi_bar, frac, demo_params):
        """Chaining through any intermediate point reproduces the direct
        solve to machine precision."""
        # each solve stops at |g| <= 1e-12 * scale, so tau inherits a few
        # 1e-12 of absolute slack per chained solve
        direct = interval_solve(phi_bar, IntervalState(), demo_params)
        mid = frac * phi_bar
        st1 = advance_interval(IntervalState(), mid, demo_params)
        rest = interval_solve(phi_bar - mid, st1, demo_params)
        assert rest.tau == pytest.approx(direct.tau, abs=5e-12)
        assert rest.q == pytest.approx(direct.q, abs=5e-12)

    def test_split_through_yield_onset(self, soft_params):
        # split inside the elastic range, finish in the plastic range
        direct = interval_solve(0.4, IntervalState(), soft_params)
        st1 = advance_interval(IntervalState(), 0.05, soft_params)   # elastic
        rest = interval_solve(0.35, st1, soft_params)
        assert rest.tau == pytest.approx(direct.tau, rel=1e-12)

    def test_direction_aware_reversal_range(self, soft_params):
        st1 = advance_interval(IntervalState(), 0.4, soft_params)
        assert st1.tau0 > 0.0
        wide = (f_iso(st1.q0, soft_params) + st1.tau0) / soft_params.mu_f
        back = interval_solve(-0.999 * wide, st1, soft_params)
        assert not back.plastic
        again = interval_solve(-1.001 * wide, st1, soft_params)
        assert again.plastic
        # continued loading re-yields immediately (stress already on the
        # surface), so the forward elastic range is zero
        fwd = interval_solve(1e-9, st1, soft_params)
        assert fwd.plastic

    def test_residual_reported(self, glass_params):
        p = glass_params
        sol = interval_solve(0.3, IntervalState(), p)
        scale = max(p.mu_f, f_iso(sol.q, p))
        # the slip equation at the returned slip, which a virgin interval
        # start makes the hardening variable
        assert oracles.slip_residual(
            p.mu_f * 0.3, sol.q, p.mu_f, p.tau_y, p.A_h, p.a_h, p.B_h,
            p.b_h, p.C_h, p.c_h) <= 1e-14 * scale
        assert sol.iterations > 0

    def test_convergence_error(self, glass_params, monkeypatch):
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            interval_solve(0.5, IntervalState(), glass_params)


# signed zeros, small and large increments of either sign, so that one
# array mixes zero, elastic and plastic points in both directions
_INCREMENTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e-3, 1e-3),
              st.floats(-0.6, 0.6)),
    min_size=1, max_size=40)


def interval_batch(phi_bar, istate, p):
    """One return-map call over the increments ``phi_bar`` (1-D) from the
    interval start ``istate``, in the form of :func:`interval_solve`."""
    n = phi_bar.size
    return return_map_batch(istate.tau0 / p.mu_f + phi_bar, np.zeros(n),
                            np.full(n, istate.q0), p)


class TestIntervalSolveBatch:
    @given(pre=st.lists(st.floats(-0.5, 0.6), max_size=2),
           increments=_INCREMENTS, glass=st.booleans())
    @example(pre=[0.4], increments=[0.0, 0.05, -0.05, 0.3, -0.5, 1e-9],
             glass=False)
    # a sub-ulp increment from a state on the yield surface: the slip is
    # far below the round-off of the residual
    @example(pre=[0.00737], increments=[2.1e-181], glass=True)
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_loop(self, pre, increments, glass, soft_params,
                                glass_params):
        """Each point of a return-map batch is the one-point interval
        solve, bit for bit, from virgin and loaded states alike."""
        p = glass_params if glass else soft_params
        state = IntervalState()
        for phi in pre:
            state = advance_interval(state, phi, p)
        phi_bar = np.array(increments)
        batch = interval_batch(phi_bar, state, p)
        loop = [interval_solve(float(x), state, p) for x in phi_bar]
        for name in ("tau", "q", "plastic"):
            assert np.array_equal(getattr(batch, name),
                                  [getattr(s, name) for s in loop]), name
        # the batch reports the sweeps of its slowest point
        assert batch.iterations == max(s.iterations for s in loop)

    def test_mixed_array_from_loaded_state(self, soft_params):
        state = advance_interval(IntervalState(), 0.4, soft_params)
        assert state.tau0 > 0.0 and state.q0 > 0.0
        phi_bar = np.array([0.0, 0.05, -0.05, 0.3, -0.5, 1e-9])
        sol = interval_batch(phi_bar, state, soft_params)
        assert sol.plastic.tolist() == [False, True, False, True, True, True]
        assert sol.tau[0] == state.tau0
        assert sol.iterations > 0
        assert (sol.q[sol.plastic] > state.q0).all()
        assert (sol.q[~sol.plastic] == state.q0).all()
        assert (sol.residual[~sol.plastic] == 0.0).all()

    def test_convergence_error_reports_worst_residual(self, glass_params,
                                                      monkeypatch):
        monkeypatch.setattr(material, "_SLIP_MAX_ITER", 1)
        phi_bar = np.array([0.0, 1e-6, 0.5, -0.3])
        residuals = []
        for x in (0.5, -0.3):
            with pytest.raises(ConvergenceError) as exc:
                interval_solve(x, IntervalState(), glass_params)
            residuals.append(exc.value.residual)
        with pytest.raises(ConvergenceError) as exc:
            interval_batch(phi_bar, IntervalState(), glass_params)
        assert exc.value.residual == max(residuals) > 0.0
        # the first unconverged point as an index into phi_bar, not into
        # the plastic points the slip solve gathers
        assert exc.value.step_index == 2


class TestAdvanceInterval:
    def test_bookkeeping(self, demo_params):
        st1 = advance_interval(IntervalState(), 0.3, demo_params)
        sol = interval_solve(0.3, IntervalState(), demo_params)
        assert st1.tau0 == sol.tau and st1.q0 == sol.q
        st2 = advance_interval(st1, -0.1, demo_params)
        assert st2.q0 >= st1.q0


class TestFrameForce:
    def test_closed_form(self):
        # the work-conjugate force per unit frame side reduces to
        # 2 tau cos(theta/2)
        for theta in (0.3, 0.9, 1.5):
            F = frame_force(0.7, theta)
            assert F == pytest.approx(2.0 * 0.7 * np.cos(theta / 2.0),
                                      rel=1e-13)

    def test_sign_follows_stress(self):
        assert frame_force(0.1, 1.0) > 0.0
        assert frame_force(-0.1, 1.0) < 0.0
        assert frame_force(0.0, 1.0) == 0.0

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            frame_force(0.1, 0.0)

    @pytest.mark.parametrize("amp", [1.0, 2.5])
    def test_broadcast_equals_scalar_calls(self, amp):
        # amp scales the stress the force is taken from
        theta = np.linspace(1e-3, np.pi / 2.0, 2001)
        tau = amp * 0.7 * np.cos(3.0 * theta)
        force = frame_force(tau, theta)
        rate = crosshead_rate(theta)
        assert np.array_equal(force, [frame_force(float(s), float(t))
                                      for s, t in zip(tau, theta)])
        assert np.array_equal(rate, [crosshead_rate(float(t)) for t in theta])

    def test_broadcast_domain_checked(self):
        for bad in (0.0, np.pi / 2.0 + 0.01, np.nan):
            theta = np.linspace(0.2, 1.4, 7)
            theta[3] = bad
            with pytest.raises(ValueError, match="theta"):
                frame_force(np.ones(7), theta)
            with pytest.raises(ValueError, match="theta"):
                crosshead_rate(theta)

    def test_rate_consistency(self):
        # force * crosshead rate equals the unit patch's angle-energy rate
        # tau dcos
        theta, tau = 1.1, 0.4
        lhs = frame_force(tau, theta) * crosshead_rate(theta)
        rhs = -np.sin(theta) * tau
        assert lhs == pytest.approx(rhs, rel=1e-14)


class TestProgramGrid:
    def test_counts_and_targets(self, cycle_program):
        # the virgin row, then legs of 100, 60 and 60 steps
        theta = program_theta_grid(cycle_program, steps_per_degree=2.0)
        assert theta.shape == (221,)
        assert theta[0] == np.pi / 2.0
        assert theta[1] != np.pi / 2.0     # interval start excluded
        assert theta[[100, 160, 220]].tolist() == list(cycle_program.targets)

    @pytest.mark.parametrize("density", [0.0, -1.0])
    def test_nonpositive_density_rejected(self, cycle_program, density):
        with pytest.raises(ValueError, match="steps_per_degree"):
            program_theta_grid(cycle_program, density)


class TestRunProgram:
    def test_initial_row_is_zero(self, demo_params, cycle_program):
        c = run_program(cycle_program, demo_params)
        assert c.gamma_deg[0] == 0.0 and c.tau[0] == 0.0
        assert c.theta12[0] == 0.0 and c.frame_force_normalized[0] == 0.0

    def test_monotone_loading_monotone_stress(self, glass_params):
        lp = LoadProgram.from_gamma_degrees([50.0])
        c = run_program(lp, glass_params)
        assert np.all(np.diff(c.tau) > 0.0)

    def test_slip_failure_keeps_its_step(self, demo_params, cycle_program,
                                         monkeypatch):
        # a slip failure at step 7 of leg 2 names the leg, and its
        # step_index counts the targets of leg 1 too.  The drive makes one
        # return-map call for the virgin row and one for each leg
        sizes = []
        solve = material.return_map_batch

        def failing(phi, phi_p, q, p):
            sizes.append(phi.size)
            if len(sizes) == 3:
                raise ConvergenceError("slip solve failed", 1e-3,
                                       step_index=7)
            return solve(phi, phi_p, q, p)

        monkeypatch.setattr(material, "return_map_batch", failing)
        with pytest.raises(ConvergenceError, match="on leg 2 ") as err:
            run_program(cycle_program, demo_params)
        assert sizes[:2] == [1, 100]
        assert err.value.step_index == 107
        assert err.value.residual == 1e-3

    @pytest.mark.parametrize("targets", [(30.0, 45.0),
                                         (10.0, 20.0, 40.0, 5.0, 5.5, 50.0)])
    @pytest.mark.parametrize("name", ["demo_params", "soft_params",
                                      "glass_params"])
    def test_same_direction_legs(self, targets, name, request):
        # consecutive legs that load the same way are one monotone run of
        # the drive; the response equals the virgin bisection while the
        # loading stays monotone, and the stepped backward-Euler chain,
        # one step a target, throughout
        p = request.getfixturevalue(name)
        c = run_program(LoadProgram.from_gamma_degrees(targets), p)
        scale = np.abs(c.tau).max()
        chain = oracles.stepped_return_map(c.theta12, p)
        assert np.abs(c.tau - chain[0]).max() <= 1e-13 * scale
        assert np.abs(c.q - chain[3]).max() <= 1e-13 * max(c.q.max(), 1.0)
        # the rows up to the first turn
        monotone = slice(None, 1 + np.argmax(np.r_[np.diff(c.theta12) < 0.0,
                                                   True]))
        virgin = oracles.virgin_stress(c.theta12[monotone], p)
        assert np.abs(c.tau[monotone] - virgin).max() <= 1e-13 * scale

    def test_angle_split_columns(self, demo_params, cycle_program):
        c = run_program(cycle_program, demo_params)
        assert np.abs(c.theta12 - (c.phi_e + c.phi_p)).max() <= 1e-15
        assert np.abs(c.tau - demo_params.mu_f * c.phi_e).max() <= 1e-15

    def test_unloading_slope_is_mu_f(self, demo_params, cycle_program):
        # rows 101..160 are the unloading leg; it stays elastic until the
        # widened reverse range (f_iso(q0) + tau0) / mu_f is used up, then
        # re-yields in reverse before reaching the 20 deg target
        c = run_program(cycle_program, demo_params)
        rev_range = c.tau[100] * 2.0 / demo_params.mu_f
        leg = slice(100, 161)
        elastic = np.abs(c.theta12[leg] - c.theta12[100]) < 0.98 * rev_range
        dtau = np.diff(c.tau[leg][elastic])
        dt12 = np.diff(c.theta12[leg][elastic])
        assert elastic.sum() >= 30
        assert not elastic[-1]
        assert np.allclose(dtau / dt12, demo_params.mu_f, rtol=1e-10)

    def test_force_column_definition(self, demo_params):
        lp = LoadProgram.from_gamma_degrees([30.0])
        mu0 = 3.0
        c = run_program(lp, demo_params, mu0=mu0)
        k = 25
        theta = gamma_to_theta(c.gamma_deg[k])
        expect = frame_force(c.tau[k], float(theta)) / mu0
        assert c.frame_force_normalized[k] == pytest.approx(expect, rel=1e-13)


def read_curve(path):
    """The :class:`ShearCurve` in a file that ``ShearCurve.to_csv`` wrote."""
    columns = _read_csv(path, ",".join(CURVE_COLUMNS))
    return ShearCurve(**dict(zip(CURVE_COLUMNS, columns)))


class TestShearCurveCSV:
    def test_round_trip_exact(self, demo_params, cycle_program, tmp_path):
        c = run_program(cycle_program, demo_params)
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        c2 = read_curve(path)
        for name in ("gamma_deg", "theta12", "tau", "phi_e", "phi_p", "q",
                     "frame_force_normalized"):
            assert np.array_equal(getattr(c, name), getattr(c2, name)), name

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("gamma,tau\n0,0\n")
        with pytest.raises(ValueError, match="header"):
            read_curve(path)

    def test_comments_and_blank_lines_before_header(self, demo_params,
                                                    cycle_program, tmp_path):
        c = run_program(cycle_program, demo_params)
        path = tmp_path / "curve.csv"
        c.to_csv(path)
        path.write_text("# closed-form cycle\n\n#\n" + path.read_text())
        c2 = read_curve(path)
        assert np.array_equal(c.tau, c2.tau)
        assert np.array_equal(c.frame_force_normalized,
                              c2.frame_force_normalized)


# bit patterns a column can hold that %.17g prints in its own way: signed
# zeros, NaNs with either sign and another payload, the infinities, the
# smallest subnormal, the largest double, and integers stored as floats
_SPECIAL_BITS = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
              1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
              2.0 ** 53, 1e16, 0.1]).view(np.int64),
    np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000],
             dtype=np.int64)])


def _csv_column(kind, rows, rng):
    if kind == "special":
        return rng.choice(_SPECIAL_BITS, rows).view(np.float64)
    if kind == "repeated":
        return rng.choice(rng.standard_normal(rng.integers(1, 20)), rows)
    if kind == "distinct":
        return rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300)
    if kind == "integer":
        return rng.integers(-1000, 1000, rows).astype(float)
    return rng.integers(0, 300, rows)          # an int64 column, like "step"


class TestWriteCSV:
    @given(rows=st.sampled_from([1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                 _CSV_BLOCK_ROWS + 1,
                                 2 * _CSV_BLOCK_ROWS + 3]),
           kinds=st.lists(st.sampled_from(["special", "repeated", "distinct",
                                           "integer", "int64"]),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_savetxt(self, rows, kinds, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        columns = [_csv_column(kind, rows, rng) for kind in kinds]
        header = ",".join(f"c{j}" for j in range(len(columns)))
        tmp = tmp_path_factory.mktemp("csv")
        _write_csv(tmp / "ours.csv", header, columns)
        oracles.savetxt_csv(tmp / "numpy.csv", header, columns)
        assert (tmp / "ours.csv").read_bytes() == \
            (tmp / "numpy.csv").read_bytes()

    # broadcast shapes (S, M) whose rows fill blocks along the first axis
    # and run past them: 1024 points is 8 steps a block, as a 16x16 field
    # dump; 3 points is 2730 steps a block; a row longer than a block is a
    # block of its own
    @given(shape=st.sampled_from([(9, 1024), (2731, 3),
                                  (2, _CSV_BLOCK_ROWS + 5), (5, 1), (1, 7)]),
           layouts=st.lists(st.sampled_from(["steps", "points", "full",
                                             "flat"]),
                            min_size=1, max_size=6),
           kinds=st.lists(st.sampled_from(["special", "repeated", "distinct",
                                           "integer", "int64"]),
                          min_size=6, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_columns_equal_savetxt(self, shape, layouts, kinds,
                                             seed, tmp_path_factory):
        # each column (S, 1), (1, M), (S, M) or 1-D (M,); the file must
        # hold the rows of the broadcast, raveled in C order
        S, M = shape
        dims = {"steps": (S, 1), "points": (1, M), "full": (S, M),
                "flat": (M,)}
        rng = np.random.default_rng(seed)
        columns = [_csv_column(kind, np.prod(dims[lay]), rng)
                   .reshape(dims[lay]) for lay, kind in zip(layouts, kinds)]
        full = np.broadcast_shapes(*(c.shape for c in columns))
        header = ",".join(f"c{j}" for j in range(len(columns)))
        tmp = tmp_path_factory.mktemp("csv")
        _write_csv(tmp / "ours.csv", header, columns)
        oracles.savetxt_csv(tmp / "numpy.csv", header,
                            [np.broadcast_to(c, full).ravel()
                             for c in columns])
        assert (tmp / "ours.csv").read_bytes() == \
            (tmp / "numpy.csv").read_bytes()

    def test_every_special_value(self, tmp_path):
        # each special value once, in a column with 0.0 and -0.0 side by side
        column = _SPECIAL_BITS.view(np.float64)
        _write_csv(tmp_path / "ours.csv", "x,y", [column, column[::-1]])
        oracles.savetxt_csv(tmp_path / "numpy.csv", "x,y",
                            [column, column[::-1]])
        text = (tmp_path / "ours.csv").read_text()
        assert text == (tmp_path / "numpy.csv").read_text()
        assert [line.split(",")[0] for line in text.splitlines()[1:3]] == \
            ["0", "-0"]


# every double that %.17g prints in its own way, and any finite one
_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     1.7976931348623157e308, -1.7976931348623157e308]))


class TestReadCSV:
    @given(columns=st.integers(0, 30).flatmap(lambda rows: st.lists(
        st.lists(_CSV_VALUES, min_size=rows, max_size=rows),
        min_size=1, max_size=6)))
    @settings(max_examples=60, deadline=None)
    def test_reads_back_written_bits(self, columns, tmp_path_factory):
        columns = [np.array(c, dtype=float) for c in columns]
        header = ",".join(f"c{j}" for j in range(len(columns)))
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        _write_csv(path, header, columns)
        back = _read_csv(path, header)
        assert len(back) == len(columns)
        for ours, theirs in zip(back, columns):
            assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 2"):
            _read_csv(path, "x,y")
        path.write_text("x,y\n1,2,3\n")
        with pytest.raises(ValueError, match="row 1"):
            _read_csv(path, "x,y")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# no data\n\n")
        with pytest.raises(ValueError, match="header"):
            _read_csv(path, "x,y")
