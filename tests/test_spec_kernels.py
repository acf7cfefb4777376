"""The SPEC calibration kernels are real algorithms — verify them."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.spec import bzip2, hmmer, libquantum, mcf, sjeng, specrand
from repro.apps.spec.base import IterationProfile


# ---------------------------------------------------------------------------
# 401.bzip2

def test_bzip2_roundtrip_on_test_block():
    block = bzip2.make_test_block(4096, seed=3)
    coded = bzip2.compress(block)
    assert bzip2.decompress(coded) == block


def test_bzip2_compresses_runs():
    coded = bzip2.compress(b"a" * 1000)
    assert len(coded["indices"]) < 10
    assert coded["coded_bits"] < 8 * 1000


def test_bzip2_counter_counts_work():
    counter = bzip2.OpCounter()
    bzip2.compress(bzip2.make_test_block(2048, seed=1), counter)
    assert counter.reads > 0 and counter.writes > 0


@given(st.binary(min_size=0, max_size=600))
@settings(max_examples=80, deadline=None)
def test_bzip2_roundtrip_arbitrary_bytes(data):
    assert bzip2.decompress(bzip2.compress(data)) == data


@given(st.lists(st.integers(min_value=0, max_value=255), max_size=300))
@settings(max_examples=80, deadline=None)
def test_mtf_roundtrip(symbols):
    counter = bzip2.OpCounter()
    encoded = bzip2.mtf_encode(symbols, counter)
    assert bzip2.mtf_decode(encoded) == symbols


def test_bzip2_calibration_profile():
    profile = bzip2.Bzip2Model(seed=0).profile
    assert profile.insts > 0
    assert profile.anon_refs > profile.heap_refs  # block buffers dominate


# ---------------------------------------------------------------------------
# 429.mcf

def test_mcf_sends_requested_flow():
    net, s, t, supply = mcf.build_instance(seed=5)
    stats = mcf.min_cost_flow(net, s, t, supply)
    assert 0 < stats.flow_sent <= supply


def test_mcf_flow_conservation():
    net, s, t, supply = mcf.build_instance(seed=5)
    mcf.min_cost_flow(net, s, t, supply)
    for node in range(1, net.node_count - 1):
        assert mcf.node_balance(net, node) == 0


def test_mcf_source_sink_balance():
    net, s, t, supply = mcf.build_instance(seed=5)
    stats = mcf.min_cost_flow(net, s, t, supply)
    assert mcf.node_balance(net, s) == stats.flow_sent
    assert mcf.node_balance(net, t) == -stats.flow_sent


def test_mcf_respects_capacities():
    net, s, t, supply = mcf.build_instance(seed=9)
    mcf.min_cost_flow(net, s, t, supply)
    for u, v, cap, cost, flow in net.arcs:
        assert flow <= cap


def test_mcf_successive_paths_have_nondecreasing_cost():
    """Shortest-path augmentation is optimal for the flow it sends:
    fewer units can never cost more per unit."""
    net1, s, t, _ = mcf.build_instance(seed=11)
    one = mcf.min_cost_flow(net1, s, t, 1)
    net2, s, t, _ = mcf.build_instance(seed=11)
    two = mcf.min_cost_flow(net2, s, t, 2)
    if one.flow_sent == 1 and two.flow_sent == 2:
        assert two.total_cost >= one.total_cost


# ---------------------------------------------------------------------------
# 456.hmmer

def test_viterbi_finite_score():
    hmm = hmmer.random_hmm(10, seed=2)
    seq = hmmer.random_sequence(30, seed=3)
    result = hmmer.viterbi(hmm, seq)
    assert math.isfinite(result.score)
    assert result.cell_updates == 30 * 10 * 3


def test_viterbi_longer_sequence_does_more_work():
    hmm = hmmer.random_hmm(10, seed=2)
    short = hmmer.viterbi(hmm, hmmer.random_sequence(20, seed=3))
    long_ = hmmer.viterbi(hmm, hmmer.random_sequence(60, seed=3))
    assert long_.cell_updates == 3 * short.cell_updates


def test_viterbi_score_is_log_probability_like():
    hmm = hmmer.random_hmm(8, seed=4)
    seq = hmmer.random_sequence(24, seed=5)
    assert hmmer.viterbi(hmm, seq).score < 0  # log-space


def test_hmm_emissions_normalised():
    hmm = hmmer.random_hmm(5, seed=6)
    for emit in hmm.match_emit:
        total = sum(math.exp(v) for v in emit.values())
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# 458.sjeng

def test_alphabeta_matches_minimax_small():
    for piles in ((1, 2), (3, 1, 2), (2, 2, 2)):
        for depth in (2, 3, 4):
            stats = sjeng.SearchStats()
            ab = sjeng.negamax(piles, depth, -(10**9), 10**9, stats)
            assert ab == sjeng.minimax_reference(piles, depth)


def test_alphabeta_matches_minimax_at_the_calibration_position():
    """Calibration runs only alpha-beta, and it reads no seed, so
    ``CAL_POSITION`` at ``CAL_DEPTH`` is the one search every run's
    sjeng profile comes from: check it against exhaustive minimax here."""
    position = sjeng.SjengModel.CAL_POSITION
    depth = sjeng.SjengModel.CAL_DEPTH
    stats = sjeng.SearchStats()
    score = sjeng.negamax(position, depth, -(10**9), 10**9, stats)
    assert score == sjeng.minimax_reference(position, depth) == 1


def test_stored_profile_is_the_calibration_search():
    """``SjengModel.calibrate`` returns ``PROFILE`` without searching, since
    the search reads no seed: recompute it from one alpha-beta search of
    ``CAL_POSITION`` to ``CAL_DEPTH``, as every run once did."""
    model = sjeng.SjengModel
    stats = sjeng.SearchStats()
    sjeng.negamax(model.CAL_POSITION, model.CAL_DEPTH, -(10**9), 10**9, stats)
    scale = model.POSITIONS_PER_ITERATION
    ops = stats.nodes * 4 + stats.moves_generated + stats.evals * 6
    searched = IterationProfile(
        insts=ops * model.insts_per_op * scale,
        heap_refs=stats.moves_generated * scale // 4,
        anon_refs=stats.nodes * scale // 3,
        stack_refs=stats.nodes * scale,
    )
    for seed in (0, 1, 1234):
        assert model(seed=seed).calibrate() == searched


def test_alphabeta_prunes():
    stats = sjeng.SearchStats()
    sjeng.negamax((5, 6, 4, 5), 5, -(10**9), 10**9, stats)
    assert stats.cutoffs > 0


def test_terminal_position_is_loss():
    stats = sjeng.SearchStats()
    assert sjeng.negamax((0, 0), 3, -(10**9), 10**9, stats) == -100


def test_move_generation():
    moves = sjeng.legal_moves((2, 0, 1))
    assert (0, 1) in moves and (0, 2) in moves and (2, 1) in moves
    assert all(take <= 3 for _, take in moves)


def test_apply_move():
    assert sjeng.apply_move((3, 2), (0, 2)) == (1, 2)


# ---------------------------------------------------------------------------
# 462.libquantum

def test_register_starts_in_zero_state():
    reg = libquantum.QuantumRegister.zero_state(4)
    assert reg.probability(0) == pytest.approx(1.0)
    assert reg.norm() == pytest.approx(1.0)


def test_hadamard_twice_is_identity():
    reg = libquantum.QuantumRegister.zero_state(3)
    reg.hadamard(1)
    reg.hadamard(1)
    assert reg.probability(0) == pytest.approx(1.0, abs=1e-9)


def test_hadamard_splits_amplitude():
    reg = libquantum.QuantumRegister.zero_state(1)
    reg.hadamard(0)
    assert reg.probability(0) == pytest.approx(0.5)
    assert reg.probability(1) == pytest.approx(0.5)


def test_cnot_entangles():
    reg = libquantum.QuantumRegister.zero_state(2)
    reg.hadamard(0)
    reg.cnot(0, 1)
    # Bell state: |00> and |11> each at 1/2.
    assert reg.probability(0b00) == pytest.approx(0.5)
    assert reg.probability(0b11) == pytest.approx(0.5)
    assert reg.probability(0b01) == pytest.approx(0.0, abs=1e-12)


def test_sweep_preserves_norm():
    reg = libquantum.QuantumRegister.zero_state(6)
    for _ in range(3):
        libquantum.entangle_sweep(reg)
        assert reg.norm() == pytest.approx(1.0, abs=1e-9)


def test_ops_counted():
    reg = libquantum.QuantumRegister.zero_state(5)
    libquantum.entangle_sweep(reg)
    assert reg.ops > 0


# ---------------------------------------------------------------------------
# 999.specrand

def test_lcg_deterministic():
    a = specrand.LcgState(seed=42).sequence(100)
    b = specrand.LcgState(seed=42).sequence(100)
    assert a == b


def test_lcg_seed_changes_stream():
    assert specrand.LcgState(seed=1).sequence(10) != specrand.LcgState(
        seed=2
    ).sequence(10)


def test_lcg_values_in_range():
    for v in specrand.LcgState(seed=9).sequence(1_000):
        assert 0 <= v < (1 << 15)


def test_lcg_mean_roughly_uniform():
    values = specrand.LcgState(seed=3).sequence(8_192)
    mean = specrand.mean_of_draws(values)
    assert 0.9 * 16_384 < mean < 1.1 * 16_384


# ---------------------------------------------------------------------------
# Calibration failure paths

def test_calibrations_produce_profiles():
    from repro.apps.spec import (
        Bzip2Model,
        HmmerModel,
        LibquantumModel,
        McfModel,
        SjengModel,
        SpecrandModel,
    )

    for model_cls in (
        Bzip2Model, McfModel, HmmerModel, SjengModel, LibquantumModel,
        SpecrandModel,
    ):
        profile = model_cls(seed=1).profile
        assert profile.insts > 0


@pytest.mark.parametrize("model_name", (
    "Bzip2Model", "HmmerModel", "LibquantumModel", "McfModel", "SpecrandModel",
))
def test_memoised_profile_equals_direct_calibration(model_name, monkeypatch):
    """A model calibrates once, on its first ``profile`` read, and two
    models with the same seed calibrate to equal profiles."""
    import repro.apps.spec as spec_models

    model_cls = getattr(spec_models, model_name)
    model = model_cls(seed=11)
    first = model.profile
    assert first == model_cls(seed=11).profile
    calls = []
    monkeypatch.setattr(model_cls, "calibrate", lambda self: calls.append(self))
    assert model.profile is first
    assert calls == []
