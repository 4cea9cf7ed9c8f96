"""Batched runs: ``integrator.run_batch`` steps runs that differ only in
their datum as one stepper, and each member's run is its solo run, byte for
byte.  That rests on three NumPy reductions giving each row of a stack the
bits of the same call on the row alone; the guard tests below pin them, so
that a NumPy or OpenBLAS upgrade that breaks one names the batch.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from viscowave.acceptance import w1_scenario
from viscowave.config import ScenarioConfig
from viscowave.integrator import run, run_batch

from test_integrator import LEDGER_BYTES, small_scenarios, table_file

BROKEN = ("{} no longer gives each row of a stack the bits of its solo "
          "call, so batched runs (integrator.run_batch) no longer reproduce "
          "solo runs; rows differ at {}")


def differing(rows, solo) -> list:
    return [b for b, (x, y) in enumerate(zip(rows, solo))
            if np.asarray(x).tobytes() != np.asarray(y).tobytes()]


@pytest.mark.parametrize("N", [201, 4097])
def test_row_dots_and_sums_are_solo_bits(N):
    # a step's per-member h1, viscous inner product and damping power: a
    # row's vecdot against vdot, with the memory's strided current row
    # first and second, and a row's add.reduce against the field's, also
    # on 2-D fields (N = 201 and 4097 as 1-D, 12 x 10 and 64 x 64)
    rng = np.random.default_rng(N)
    for B in (2, 4, 7):
        M = rng.standard_normal((B, 9, N + 1))
        lap, u = M[:, -3, :-1], rng.standard_normal((B, N))
        h1 = np.vecdot(lap, u)
        bad = differing(h1, [np.vdot(lap[b], u[b]) for b in range(B)])
        assert not bad, BROKEN.format("np.vecdot", bad)
        inner = np.vecdot(u, lap)
        bad = differing(inner, [np.vdot(u[b], lap[b]) for b in range(B)])
        assert not bad, BROKEN.format("np.vecdot", bad)
        for shape in ((N,), (12, 10), (64, 64)):
            work = rng.standard_normal((B,) + shape) ** 2
            sums = np.add.reduce(work.reshape(B, -1), axis=-1)
            bad = differing(sums, [np.add.reduce(w, None) for w in work])
            assert not bad, BROKEN.format("np.add.reduce along rows", bad)


@pytest.mark.parametrize("K3", [4, 25, 136])
@pytest.mark.parametrize("N", [201, 4097])
def test_stacked_memory_product_is_solo_bits(K3, N):
    # G @ M[:-2] over the (B, K+5, N+1) stack against each block's product;
    # one product over the blocks' columns side by side, (K+3) x B(N+1),
    # changes the bits from K+3 = 25 on, where OpenBLAS changes kernels
    rng = np.random.default_rng(K3 * N)
    G = rng.standard_normal((2, K3))
    for B in (2, 4):
        M = rng.standard_normal((B, K3 + 2, N + 1))
        np.matmul(G, M[:, :-2], M[:, -2:])
        bad = differing(M[:, -2:], [G @ block[:-2] for block in M])
        assert not bad, BROKEN.format("np.matmul over a stack", bad)


def with_amplitude(cfg: ScenarioConfig, amplitude: float) -> ScenarioConfig:
    """cfg's datum at another amplitude: a table's fields scaled by
    amplitude / 0.1."""
    if cfg.template != "table":
        return replace(cfg, amplitude=amplitude)
    rows = np.loadtxt(cfg.table_path, delimiter=",", ndmin=2)
    return replace(cfg, table_path=table_file(
        rows[:, 0], rows[:, 1:] * (amplitude / 0.1)))


@settings(max_examples=30, deadline=None)
@given(base=small_scenarios(), m=st.sampled_from([1.0, 1.5, 3.0]),
       amplitudes=st.lists(st.one_of(st.floats(0.0, 0.1), st.just(2.0),
                                     st.just(1e30)), min_size=1, max_size=4))
# a member whose ||grad u|| doubles leaves and halves dt to exhaustion alone
@example(base=LEDGER_BYTES["halving_1d"][0], m=1.0,
         amplitudes=[0.1, 2.0, 0.05])
# undamped, the 1e45 member's v overflows in the first step
@example(base=replace(w1_scenario(t_end=1.0), damping_enabled=False), m=1.0,
         amplitudes=[0.1, 1e45])
# 2-D at m = 3: each half-step's members take mixed tiers, GUESS and PADE
# at 0.003, PADE and SOLVE at 0.1, and the 1e30 member leaves
@example(base=LEDGER_BYTES["grid_2d_m3"][0], m=3.0,
         amplitudes=[0.003, 0.1, 1e30])
def test_batch_members_are_their_solo_runs(base, m, amplitudes):
    configs = [with_amplitude(replace(base, m=m), A) for A in amplitudes]
    with np.errstate(all="ignore"):
        batch = run_batch(configs, trajectory=True)
        solo = [run(cfg, trajectory=True) for cfg in configs]
    for got, want in zip(batch, solo):
        assert got.config == want.config
        assert got.ledger.to_csv() == want.ledger.to_csv()
        assert got.flags == want.flags
        assert got.state.step_index == want.state.step_index
        for a, b in zip(got.state.member(got.member)[:2],
                        want.state.member(want.member)[:2]):
            assert a.tobytes() == b.tobytes()
        assert [u.tobytes() for u in got.trajectory.u] == \
            [u.tobytes() for u in want.trajectory.u]


@pytest.mark.parametrize("B", [1, 3])
def test_member_views_the_stack_and_the_evaluation_in_force(B):
    # member b's u and v are views of the stepper's fields, and its memory
    # evaluation is taken from ``stepper.mem`` when it is asked for: a
    # swapped evaluation (tests/test_defects.py) gives each member its rows
    w1 = w1_scenario(t_end=0.5)
    stepper = run_batch([replace(w1, amplitude=0.05 * (b + 1))
                         for b in range(B)])[0].state
    mem = stepper.mem
    swapped = stepper.mem = mem._replace(conv=mem.conv[::-1],
                                         scalar=mem.scalar[::-1])
    assert not np.array_equal(swapped.conv, mem.conv)
    for b in range(B):
        u, v, got, _ = stepper.member(b)
        assert u.shape == v.shape == stepper.grid.shape
        assert np.shares_memory(u, stepper.u)
        assert np.shares_memory(v, stepper.v)
        conv, scalar = ((swapped.conv, swapped.scalar) if B == 1 else
                        (swapped.conv[:, b], swapped.scalar[:, b]))
        assert got.conv.tobytes() == conv.tobytes()
        assert got.scalar.tobytes() == scalar.tobytes()


def test_batch_members_share_all_but_the_datum():
    w1 = w1_scenario(t_end=0.5)
    run_batch([w1, replace(w1, amplitude=0.2, modes=(2,))])
    with pytest.raises(ValueError, match="datum alone"):
        run_batch([w1, replace(w1, m=3.0)])
