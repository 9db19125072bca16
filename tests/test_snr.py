import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revtrain import ops, snr, zoo
from revtrain.errors import ConfigError
from revtrain.layers import InvBatchNorm, InvConv


# ---------------------------------------------------------------------------
# closed forms


def test_alpha_bn_toy_values():
    assert snr.alpha_bn_toy(1.0) == 1.0
    assert snr.alpha_bn_toy(2.0) == 0.64
    assert snr.alpha_bn_toy(1e6) < 1e-11


def test_alpha_bn_toy_domain():
    with pytest.raises(ConfigError):
        snr.alpha_bn_toy(0.0)
    with pytest.raises(ConfigError):
        snr.alpha_bn_toy(-2.0)


def test_alpha_lrelu_values():
    assert snr.alpha_lrelu(1.0) == 1.0
    assert snr.alpha_lrelu(2.0) == 0.64
    assert snr.alpha_lrelu(10.0) == pytest.approx(0.039211841976276834, rel=1e-14)


def test_alpha_lrelu_domain():
    with pytest.raises(ConfigError):
        snr.alpha_lrelu(0.5)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_alpha_bn_toy_is_a_reduction_and_symmetric(rho):
    a = snr.alpha_bn_toy(rho)
    assert 0.0 < a <= 1.0 + 1e-12
    assert a == pytest.approx(snr.alpha_bn_toy(1.0 / rho), rel=1e-9)


@given(st.floats(min_value=1.0, max_value=1000.0))
def test_alpha_lrelu_is_a_reduction(n):
    assert 0.0 < snr.alpha_lrelu(n) <= 1.0 + 1e-12


@given(st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=50)
def test_general_formula_specializes_to_toy(rho):
    general = snr.alpha_bn_general([1.0, rho], 0.0, 0.0, 1.0, 0.0)
    assert general == pytest.approx(snr.alpha_bn_toy(rho), rel=1e-12)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.01, max_value=9.0),
    st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50)
def test_general_formula_uniform_channels(gain, var, c):
    a = snr.alpha_bn_general([gain] * c, 0.0, 0.0, var, 0.0)
    assert a == pytest.approx(1.0, rel=1e-12)


def test_general_formula_domain():
    with pytest.raises(ConfigError, match="nonzero"):
        snr.alpha_bn_general([1.0, 0.0], 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="nonnegative"):
        snr.alpha_bn_general([1.0, 2.0], 0.0, 0.0, -1.0, 0.0)
    with pytest.raises(ConfigError, match="one-dimensional"):
        snr.alpha_bn_general(np.ones((2, 2)), 0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError, match="amplification"):
        snr.alpha_bn_general([1.0, 2.0], 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Monte-Carlo measurement vs theory


def test_measure_alpha_identity():
    est = snr.measure_alpha(
        snr._IdentityLayer(), snr.gaussian_input(2), theoretical=1.0,
        n_samples=20_000, seed=5,
    )
    assert est.empirical == pytest.approx(1.0, rel=1e-6)
    assert est.stderr >= 0.0
    assert np.isfinite(est.stderr)
    assert est.n_samples == 20_000
    assert "sigma" in est.config


def test_measured_alpha_matches_bn_toy_curve():
    for rho, est in snr.alpha_sweep("bn-toy", [1, 2, 5, 10, 100], seed=0):
        assert est.theoretical == snr.alpha_bn_toy(rho)
        rel = abs(est.empirical - est.theoretical) / est.theoretical
        assert rel < 0.05, (rho, est)


def test_measured_alpha_matches_lrelu_curve():
    for n, est in snr.alpha_sweep("lrelu", [1.25, 2, 5, 10], seed=3):
        rel = abs(est.empirical - est.theoretical) / est.theoretical
        assert rel < 0.05, (n, est)


def test_measured_alpha_matches_general_formula():
    rng = np.random.default_rng(13)
    c = 16
    gamma = rng.uniform(0.3, 3.0, c)
    beta = rng.uniform(-1.0, 1.0, c)
    mean = rng.uniform(-2.0, 2.0, c)
    var = rng.uniform(0.25, 4.0, c)
    theory = snr.alpha_bn_general(gamma, beta, mean, var, eps=1e-12)
    layer = InvBatchNorm(c, eps=1e-12, eps_i=0.0, dtype=np.float64)
    layer.gamma = gamma.copy()
    layer.beta = beta.copy()
    est = snr.measure_alpha(
        layer, snr.gaussian_input(c, mean=mean, std=np.sqrt(var)),
        n_samples=100_000, seed=13,
    )
    assert abs(est.empirical - theory) / theory < 0.10
    # the self-derived theory plugs in batch statistics; it should land on
    # the configured-statistics value up to sampling error
    assert est.theoretical == pytest.approx(theory, rel=0.02)


def test_measured_alpha_ignores_noise_scale():
    vals = []
    for i, sigma in enumerate((1e-6, 1e-5, 1e-4)):
        est = snr.measure_alpha(
            snr._toy_bn(5.0), snr.gaussian_input(2), noise_std=sigma,
            n_samples=20_000, seed=100 + i, theoretical=snr.alpha_bn_toy(5.0),
        )
        vals.append(est.empirical)
    assert max(vals) / min(vals) < 1.05


def test_measure_alpha_argument_errors():
    with pytest.raises(ConfigError, match="noise_std"):
        snr.measure_alpha(snr._IdentityLayer(), snr.gaussian_input(2),
                          noise_std=0.0, theoretical=1.0)
    with pytest.raises(ConfigError, match="samples"):
        snr.measure_alpha(snr._IdentityLayer(), snr.gaussian_input(2),
                          n_samples=5, theoretical=1.0)
    with pytest.raises(ConfigError, match="closed-form"):
        snr.measure_alpha(snr._IdentityLayer(), snr.gaussian_input(2),
                          n_samples=1000)


def test_alpha_sweep_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="bn-toy or lrelu"):
        snr.alpha_sweep("tanh", [1.0])


def test_coupling_reconstruction_is_stable():
    layer = InvConv(8, k=3, rng=ops.default_rng(2), dtype=np.float64)
    rng = ops.default_rng(3)
    x = rng.standard_normal((16, 8, 6, 6))
    y = layer.forward(x)
    x_rec = layer.inverse(y + rng.normal(0.0, 1e-5, size=y.shape))
    rec_snr = (x**2).sum() / ((x_rec - x) ** 2).sum()
    assert rec_snr > 1e8


# ---------------------------------------------------------------------------
# whole-model profiles


def test_depth_sweep_decays_exponentially():
    rows = snr.snr_depth_sweep("layerwise", [2, 6, 10, 14], [2.0], seed=0)
    snrs = [r[2] for r in rows]
    assert snrs == sorted(snrs, reverse=True)
    slope, _, r2 = snr.line_fit([r[0] for r in rows], np.log10(snrs))
    assert slope < 0
    assert r2 > 0.9


def test_depth3_slope_sweep_is_loglog_linear():
    rows = snr.snr_depth_sweep("layerwise", [3], [2, 5, 10, 30, 100], seed=1)
    slope, _, r2 = snr.line_fit(
        np.log10([r[1] for r in rows]), np.log10([r[2] for r in rows])
    )
    assert slope < 0
    assert r2 > 0.95


def test_hybrid_family_is_far_more_stable():
    lw = snr.snr_depth_sweep("layerwise", [8], [2.0], seed=2)[0][2]
    hy = snr.snr_depth_sweep("hybrid", [8], [2.0], seed=2)[0][2]
    assert hy >= 10 * lw


def test_block_inputs_beat_block_internals():
    model = zoo.build_model(zoo.hybrid_family(4), seed=3, slope=2.0)
    x = ops.gaussian((4, 3, 8, 8), seed=4)
    trace = snr.traced_backward(model, x, "hybrid", seed=5)
    rows = snr.block_trace_summary(trace)
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    # A walk starts from the branch input the coupling rebuilt, so the
    # trace holds no branch layer 0: the InvConv inverses that rebuilt it
    # were each block's weakest records.  Without them the deepest block's
    # input (131.1 dB) reads below its internals (131.9 dB); what holds is
    # that block inputs, each rebuilt from the one above, lose SNR with depth.
    assert not [r.path for r in trace.records if r.path.endswith(".0")]
    assert len(trace.records) == 4 * 5
    inputs = [input_snr for _, _, input_snr in rows]
    assert all(lower < upper for lower, upper in zip(inputs, inputs[1:]))


def test_trace_records_cover_the_walk():
    model = zoo.build_model(zoo.layerwise_family(3), seed=6, slope=2.0)
    x = ops.gaussian((4, 3, 8, 8), seed=7)
    trace = snr.traced_backward(model, x, "hybrid", seed=8)
    # 3 triples, all but the stem reconstructed
    assert len(trace.records) == 9
    assert trace.records[-1].path == "1"
    assert min(r.snr for r in trace.records) > 0


def test_family_builders_validate():
    with pytest.raises(ConfigError):
        zoo.layerwise_family(0)
    with pytest.raises(ConfigError):
        zoo.hybrid_family(2, width=6)
    with pytest.raises(ConfigError, match="unknown family"):
        snr.snr_depth_sweep("plain", [2], [2.0])


def test_build_model_gives_every_activation_the_slope():
    model = zoo.build_model(zoo.hybrid_family(2), slope=5.0)
    slopes = [layer.n for _, layer in model.named_layers() if layer.kind == "lrelu"]
    assert slopes == [5.0] * 4


# ---------------------------------------------------------------------------
# the paper's depth claim: fixed cost per pixel, slow SNR loss for hybrid nets


@pytest.fixture(scope="module")
def depth_sweep_db():
    """Deepest-record SNR in dB per family and depth (f32, slope 2, seed 0)."""
    depths = [2, 4, 8, 16, 32]
    return {
        family: {d: 10 * np.log10(v) for d, _, v in snr.snr_depth_sweep(family, depths, [2.0])}
        for family in zoo.FAMILIES
    }


def test_hybrid_loses_under_two_db_per_block(depth_sweep_db):
    hybrid = depth_sweep_db["hybrid"]
    assert (hybrid[2] - hybrid[32]) / 30 < 2.0  # measured about 1.42


def test_layerwise_is_pure_noise_by_depth_16(depth_sweep_db):
    assert depth_sweep_db["layerwise"][16] < 0  # measured about -89.9


# ---------------------------------------------------------------------------
# output tables


def test_sweep_csv_shape():
    rows = snr.alpha_sweep("lrelu", [2.0], n_samples=2_000, seed=9)
    csv = snr.sweep_csv(rows, "slope")
    lines = csv.strip().splitlines()
    assert lines[0] == "slope,theoretical_alpha,empirical_alpha,stderr"
    assert len(lines) == 2
    assert lines[1].startswith("2,0.64,")


def test_depth_sweep_csv_shape():
    rows = snr.snr_depth_sweep("layerwise", [2], [2.0], seed=10)
    csv = snr.depth_sweep_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "depth,slope,snr"
    assert lines[1].startswith("2,2,")


def test_trace_csv_shape():
    model = zoo.build_model(zoo.layerwise_family(2), seed=11)
    x = ops.gaussian((4, 3, 8, 8), seed=12)
    trace = snr.traced_backward(model, x, "hybrid", seed=13)
    lines = snr.trace_csv(trace).strip().splitlines()
    assert lines[0] == "layer_index,kind,snr"
    assert len(lines) == 1 + len(trace.records)


def test_line_fit_recovers_a_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept, r2 = snr.line_fit(x, 3.0 * x + 1.0)
    assert slope == pytest.approx(3.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        snr.line_fit([1.0], [2.0])
