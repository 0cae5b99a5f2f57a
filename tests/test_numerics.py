import numpy as np
import pytest

from part import AdamState, InputError, NumericError, adam_step, finite_diff_check, softmax_xent_slice
from part.numerics import FlatAdam, Segments


# ---------------------------------------------------------------------------
# adam_step

def test_zero_gradient_is_fixed_point_for_fresh_state():
    p = np.array([[1.0, -2.0], [0.5, 3.0]])
    state = AdamState.for_param(p, lr=0.01)
    new_p, new_state = adam_step(p, np.zeros_like(p), state)
    assert np.array_equal(new_p, p)
    assert new_state.step == 1


def test_zero_gradient_is_fixed_point_for_any_state():
    # even with accumulated moments, an all-zero gradient must not move params
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=(3, 2))
        state = AdamState(m=rng.normal(size=(3, 2)), v=rng.uniform(0, 1, (3, 2)),
                          lr=10 ** rng.uniform(-5, -1), step=int(rng.integers(0, 50)))
        new_p, new_state = adam_step(p, np.zeros_like(p), state)
        assert np.array_equal(new_p, p)
        assert new_state.step == state.step + 1


def test_single_step_matches_hand_evaluated_recurrence():
    # oracle: m=0.1, v=0.001, bias-corrected to 1.0 each, delta = -lr/(1+eps)
    p = np.array([[0.0]])
    g = np.array([[1.0]])
    state = AdamState.for_param(p, lr=1e-3)
    new_p, new_state = adam_step(p, g, state)
    assert new_p[0, 0] == pytest.approx(-0.0009999999900000003, abs=1e-15)
    assert new_state.step == 1


def test_two_constant_steps_and_step_size_bound():
    # oracle: two-step hand evaluation gives -0.001999999979999993
    p = np.array([[0.0]])
    g = np.array([[1.0]])
    state = AdamState.for_param(p, lr=1e-3)
    p1, state = adam_step(p, g, state)
    p2, state = adam_step(p1, g, state)
    assert p2[0, 0] == pytest.approx(-0.001999999979999993, abs=1e-15)
    # per-step movement under constant gradient stays within lr (plus eps slack)
    assert abs(p1[0, 0] - 0.0) <= 1e-3 * (1 + 1e-6)
    assert abs(p2[0, 0] - p1[0, 0]) <= 1e-3 * (1 + 1e-6)


def test_adam_shape_mismatch_rejected():
    p = np.zeros((2, 2))
    state = AdamState.for_param(p, lr=0.1)
    with pytest.raises(InputError):
        adam_step(p, np.zeros((2, 3)), state)
    with pytest.raises(InputError):
        adam_step(np.zeros((3, 2)), np.zeros((3, 2)), state)


@pytest.mark.parametrize("lr", [0.0, -1e-3])
def test_adam_state_needs_a_positive_learning_rate(lr):
    with pytest.raises(InputError, match=f"^lr must be positive, got {lr}$"):
        AdamState.for_param(np.zeros(2), lr)


def test_flat_adam_refuses_a_gradient_of_another_length():
    adam, params = FlatAdam(5), np.zeros(5)
    segments = Segments.of([np.array([0, 1]), np.array([3])])
    with pytest.raises(InputError, match=r"^expected 3 gradient values, got \(2,\)$"):
        adam.step(params, np.ones(2), segments, 1e-3)
    assert not params.any() and not adam.steps.any()


def test_adam_is_pure():
    p = np.ones((2, 2))
    g = np.full((2, 2), 0.5)
    state = AdamState.for_param(p, lr=0.1)
    adam_step(p, g, state)
    assert np.array_equal(p, np.ones((2, 2)))
    assert state.step == 0
    assert not state.m.any()


# ---------------------------------------------------------------------------
# softmax_xent_slice

def test_uniform_logits_two_wide_slice():
    logits = np.zeros((1, 2))
    loss, dlogits = softmax_xent_slice(logits, np.array([0]))
    assert loss == pytest.approx(0.6931471805599453, abs=1e-12)
    assert dlogits[0] == pytest.approx([0.5 - 1.0, 0.5], abs=1e-12)


def test_saturated_correct_class():
    logits = np.array([[10.0, 0.0]])
    loss, _ = softmax_xent_slice(logits, np.array([0]))
    assert loss < 1e-4
    assert loss == pytest.approx(4.5398899216870535e-05, rel=1e-9)


def test_slice_gradient_rows_sum_zero():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    loss, dslice = softmax_xent_slice(logits, labels)
    assert dslice.shape == (5, 3)
    np.testing.assert_allclose(dslice.sum(axis=1), 0.0, atol=1e-15)
    assert np.isfinite(loss)


def test_slice_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    _, dslice = softmax_xent_slice(logits, labels)

    def f(plist):
        return softmax_xent_slice(plist[0], labels)[0]

    err = finite_diff_check(f, [logits], [dslice], h=1e-5)
    assert err < 1e-6


def test_label_out_of_slice_range_rejected():
    logits = np.zeros((2, 2))
    with pytest.raises(InputError):
        softmax_xent_slice(logits, np.array([2, 0]))
    with pytest.raises(InputError):
        softmax_xent_slice(logits, np.array([0, -1]))


@pytest.mark.parametrize("logits, labels", [
    (np.zeros(2), np.array([0, 1])),             # 1-D logits
    (np.zeros((1, 2, 2)), np.array([0])),        # 3-D logits
    (np.zeros((2, 2)), np.array([0.0, 1.0])),    # float labels
    (np.zeros((2, 2)), np.array([True, False])), # boolean labels
    (np.zeros((2, 2)), np.array([0, 1, 1])),     # one label too many
    (np.zeros((2, 2)), np.array([[0, 1]])),      # 2-D labels
    (np.zeros((0, 3)), np.zeros(0, int)),        # empty batch
])
def test_malformed_logits_or_labels_rejected(logits, labels):
    with pytest.raises(InputError):
        softmax_xent_slice(logits, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_logits_rejected(bad):
    logits = np.zeros((3, 2))
    logits[1, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        softmax_xent_slice(logits, np.array([0, 1, 0]))


def test_xent_is_mean_over_batch():
    logits = np.tile(np.array([[2.0, -1.0, 0.5]]), (6, 1))
    labels = np.zeros(6, dtype=int)
    loss6, d6 = softmax_xent_slice(logits, labels)
    loss1, d1 = softmax_xent_slice(logits[:1], labels[:1])
    assert loss6 == pytest.approx(loss1, rel=1e-12)
    np.testing.assert_allclose(d6[0], d1[0] / 6.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# finite_diff_check

def test_polynomial_exact_case():
    def f(plist):
        return float(plist[0][0, 0] ** 2)

    w = np.array([[3.0]])
    err = finite_diff_check(f, [w], [np.array([[6.0]])], h=1e-5)
    assert err < 1e-8


def test_detects_corrupted_gradient():
    def f(plist):
        return float(plist[0][0, 0] ** 2)

    w = np.array([[3.0]])
    err = finite_diff_check(f, [w], [np.array([[6.0 * 1.1]])], h=1e-5)
    assert err > 0.05


def test_multi_tensor_params():
    def f(plist):
        a, b = plist
        return float((a ** 2).sum() + (a * b).sum())

    a = np.array([1.0, -2.0])
    b = np.array([0.5, 0.25])
    ga = 2 * a + b
    gb = a
    err = finite_diff_check(f, [a, b], [ga, gb], h=1e-5)
    assert err < 1e-8


def test_nonfinite_loss_is_numeric_error():
    def f(plist):
        return float("nan")

    with pytest.raises(NumericError):
        finite_diff_check(f, [np.array([1.0])], [np.array([0.0])])


def test_mismatched_grad_shape_rejected():
    def f(plist):
        return 0.0

    with pytest.raises(InputError):
        finite_diff_check(f, [np.zeros(3)], [np.zeros(2)])
    with pytest.raises(InputError, match="^params and analytic_grads must pair up$"):
        finite_diff_check(f, [np.zeros(3), np.zeros(2)], [np.zeros(3)])


@pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
def test_step_that_is_not_positive_and_finite_rejected(h):
    with pytest.raises(InputError, match="step h"):
        finite_diff_check(lambda plist: 0.0, [np.zeros(2)], [np.zeros(2)], h=h)


def test_one_array_instead_of_a_list_rejected():
    # a bare array would be split into its rows, each perturbed as a tensor
    with pytest.raises(InputError, match="list of arrays"):
        finite_diff_check(lambda plist: 0.0, np.zeros((2, 3)), [np.zeros((2, 3))])
