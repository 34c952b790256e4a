from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lamedit import covariance as cov_mod
from lamedit import model as model_mod
from lamedit.covariance import PER_LANGUAGE, SHARED
from lamedit.errors import IllConditionedError, ShapeError
from lamedit.experiment import SolverSettings
from lamedit.merging import merge_sum, apply_update
from lamedit.metrics import evaluate_all, probe_batch, run_mono
from lamedit.model import compute_prefix, keys_and_targets
from lamedit.solvers import (
    DEFAULT_COND_LIMIT,
    DEFAULT_LAM_ALPHAEDIT,
    DEFAULT_LAM_MEMIT,
    DEFAULT_REL_TOL,
    LanguageRequests,
    _alphaedit_lu,
    _alphaedit_matrix,
    _memit_inverse,
    _memit_matrix,
    _rhs,
    edit_model,
    nullspace_projector,
    preserved_terms,
    request_prefix,
    solve_alphaedit,
    solve_memit,
)

from test_model import random_model


def prepare(model, requests):
    """Each language's :class:`RequestPrefix` on ``model``."""
    return [request_prefix(model, req) for req in requests]


def edit_requests(model, requests, preserved_inputs, lam, method="memit", rel_tol=DEFAULT_REL_TOL, **kwargs):
    """``edit_model`` on raw requests and preserved inputs, both prepared on ``model`` first."""
    preserved = preserved_terms(model, preserved_inputs, method, rel_tol)
    return edit_model(model, prepare(model, requests), preserved, lam, method=method, **kwargs)


def edit_objective(w, delta, keys, targets, k_const, lam):
    """The batched least-squares editing objective, preserved values frozen."""
    fit = (w + delta) @ keys - targets
    keep = delta @ k_const
    return float(np.sum(fit * fit) + lam * np.sum(keep * keep))


def descend_edit_objective(w, keys, targets, k_const, lam, iters=20000, rel_stop=1e-14):
    """Nesterov gradient descent on the editing objective, from zero."""
    cov_req = keys @ keys.T
    cov_const = k_const @ k_const.T
    system = cov_req + lam * cov_const
    step = 1.0 / (2.0 * np.linalg.eigvalsh(system)[-1])
    rk = (targets - w @ keys) @ keys.T
    delta = np.zeros_like(w)
    momentum = np.zeros_like(w)
    prev = delta
    for t in range(1, iters + 1):
        grad = 2.0 * (momentum @ system - rk)
        delta = momentum - step * grad
        if np.linalg.norm(delta - prev) <= rel_stop * max(np.linalg.norm(delta), 1e-30):
            break
        momentum = delta + (t / (t + 3.0)) * (delta - prev)
        prev = delta
    return delta


def random_instance(rng, d=16, h=32, n=8, p=64):
    w = rng.standard_normal((d, h)) * 0.3
    keys = rng.standard_normal((h, n))
    targets = rng.standard_normal((d, n))
    k_const = rng.standard_normal((h, p))
    return w, keys, targets, k_const


class TestSolveMemit:
    def test_zero_error_term_gives_zero_delta(self):
        rng = np.random.default_rng(0)
        w, keys, _, k_const = random_instance(rng)
        targets = w @ keys
        delta = solve_memit(w, keys, targets, k_const @ k_const.T, keys @ keys.T, 1.0)
        assert np.allclose(delta, 0.0, atol=1e-10)

    def test_hand_worked_two_by_two(self):
        w = np.eye(2)
        key = np.array([[1.0], [0.0]])
        target = np.array([[0.0], [1.0]])
        delta = solve_memit(w, key, target, np.eye(2), key @ key.T, 1.0)
        assert np.allclose(delta, [[-0.5, 0.0], [0.5, 0.0]], atol=1e-12)

    def test_objective_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            w, keys, targets, k_const = random_instance(rng)
            lam = 1.0
            delta = solve_memit(w, keys, targets, k_const @ k_const.T, keys @ keys.T, lam)
            oracle = descend_edit_objective(w, keys, targets, k_const, lam)
            j_solver = edit_objective(w, delta, keys, targets, k_const, lam)
            j_oracle = edit_objective(w, oracle, keys, targets, k_const, lam)
            assert j_solver <= j_oracle * (1 + 1e-6)
            assert j_oracle <= j_solver * (1 + 1e-4)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        w, keys, targets, k_const = random_instance(rng)
        cov_c = k_const @ k_const.T
        cov_r = keys @ keys.T
        base = solve_memit(w, keys, targets, cov_c, cov_r, 1.0)
        doubled = solve_memit(w, keys, 2 * targets - w @ keys, cov_c, cov_r, 1.0)
        scale = np.linalg.norm(doubled)
        assert np.linalg.norm(doubled - 2 * base) <= 1e-10 * max(scale, 1e-12)

    def test_singular_system_raises(self):
        rng = np.random.default_rng(3)
        w, keys, targets, _ = random_instance(rng, n=2)
        with pytest.raises(IllConditionedError) as err:
            solve_memit(w, keys, targets, np.zeros((32, 32)), keys @ keys.T, 0.0)
        assert err.value.condition_estimate > 1e12

    def test_cond_limit_enforced(self):
        rng = np.random.default_rng(4)
        w, keys, targets, k_const = random_instance(rng)
        with pytest.raises(IllConditionedError):
            solve_memit(w, keys, targets, k_const @ k_const.T, keys @ keys.T, 1.0, cond_limit=1.0)

    def test_shape_checks(self):
        rng = np.random.default_rng(5)
        w, keys, targets, k_const = random_instance(rng)
        with pytest.raises(ShapeError):
            solve_memit(w, keys[:- 1], targets, k_const @ k_const.T, keys @ keys.T, 1.0)
        with pytest.raises(ShapeError):
            solve_memit(w, keys, targets, k_const @ k_const.T, keys @ keys.T, -1.0)


def projected_instance(rng, h, n, p):
    """Request keys and a null-space projector of a rank-deficient preserved sample."""
    keys = rng.standard_normal((h, n))
    k_const = rng.standard_normal((h, p))
    return keys, nullspace_projector(k_const @ k_const.T, rel_tol=1e-6)


class TestFactoredSolves:
    def test_memit_equals_positive_definite_solve(self):
        # One Cholesky factor per solve gives the bits of scipy's "pos" solve.
        rng = np.random.default_rng(13)
        for trial in range(25):
            h = int(rng.integers(4, 80))
            d, n, p = int(rng.integers(2, h + 1)), int(rng.integers(1, 70)), int(rng.integers(1, 3 * h))
            w, keys, targets, k_const = random_instance(rng, d=d, h=h, n=n, p=p)
            lam = float(rng.uniform(0.01, 5.0))
            cov_c, cov_r = k_const @ k_const.T + 1e-3 * np.eye(h), keys @ keys.T
            delta = solve_memit(w, keys, targets, cov_c, cov_r, lam)
            system = lam * cov_c + cov_r
            system = 0.5 * (system + system.T)
            rhs = keys @ (targets - w @ keys).T
            assert np.array_equal(delta, scipy.linalg.solve(system, rhs, assume_a="pos").T)

    def test_alphaedit_equals_general_solve(self):
        # One LU factor of the transposed system gives the bits of scipy's general solve.
        rng = np.random.default_rng(14)
        for trial in range(25):
            h = int(rng.integers(4, 80))
            d, n, p = int(rng.integers(2, h + 1)), int(rng.integers(1, 70)), int(rng.integers(1, h))
            w = rng.standard_normal((d, h)) * 0.3
            keys, proj = projected_instance(rng, h, n, p)
            targets = rng.standard_normal((d, n))
            lam = float(rng.uniform(0.01, 5.0))
            delta = solve_alphaedit(w, keys, targets, proj, keys @ keys.T, lam)
            system = lam * np.eye(h) + keys @ keys.T @ proj.projector
            rhs = proj.projector @ keys @ (targets - w @ keys).T
            assert np.array_equal(delta, scipy.linalg.solve(system.T, rhs).T)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 48),
        n=st.integers(1, 40),
        lam=st.floats(1e-3, 1e3),
    )
    def test_memit_solution_is_stationary(self, seed, h, n, lam):
        # The objective ||(W + D) K - T||^2 + lam ||D K0||^2 has gradient
        # 2 (D S - R K^T) with S = lam K0 K0^T + K K^T and R = T - W K; a
        # backward-stable solve leaves it at rounding level relative to its terms.
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, h + 1))
        w, keys, targets, k_const = random_instance(rng, d=d, h=h, n=n, p=h + 4)
        cov_c, cov_r = k_const @ k_const.T, keys @ keys.T
        delta = solve_memit(w, keys, targets, cov_c, cov_r, lam)
        system = lam * cov_c + cov_r
        rk = (targets - w @ keys) @ keys.T
        gradient = delta @ system - rk
        scale = np.linalg.norm(delta) * np.linalg.norm(system) + np.linalg.norm(rk)
        assert np.linalg.norm(gradient) <= 1e-10 * scale


class TestNullspaceProjector:
    def test_identity_covariance_gives_zero(self):
        proj = nullspace_projector(np.eye(5))
        assert np.allclose(proj.projector, 0.0, atol=1e-12)
        assert proj.null_dim == 0

    def test_zero_covariance_gives_identity(self):
        proj = nullspace_projector(np.zeros((5, 5)))
        assert np.array_equal(proj.projector, np.eye(5))
        assert proj.null_dim == 5

    def test_diagonal_example(self):
        proj = nullspace_projector(np.diag([5.0, 0.0, 0.0]))
        assert np.allclose(proj.projector, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        assert proj.null_dim == 2

    def test_projector_invariants(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            k_const = rng.standard_normal((12, rng.integers(2, 8)))
            cov = k_const @ k_const.T
            proj = nullspace_projector(cov)
            p = proj.projector
            assert np.linalg.norm(p - p.T) <= 1e-10
            assert np.linalg.norm(p @ p - p) <= 1e-8 * max(np.linalg.norm(p), 1e-12)
            assert np.linalg.norm(p @ cov) <= 1e-6 * np.linalg.norm(cov)

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            nullspace_projector(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e200], ids=["inf", "-inf", "nan", "overflow"])
    def test_non_finite_norm_raises_before_the_eigendecomposition(self, entry, monkeypatch):
        # scipy's eigh would raise a bare ValueError on a non-finite matrix.
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh was reached")

        monkeypatch.setattr(scipy.linalg, "eigh", no_eigh)
        cov = np.eye(6)
        cov[2, 3] = cov[3, 2] = entry
        with pytest.raises(IllConditionedError, match="preserved covariance"):
            nullspace_projector(cov)


class TestSolveAlphaedit:
    def test_identity_projector_matches_memit_identity_const(self):
        rng = np.random.default_rng(7)
        w, keys, targets, _ = random_instance(rng)
        lam = 0.7
        proj = nullspace_projector(np.zeros((32, 32)))
        via_alpha = solve_alphaedit(w, keys, targets, proj, keys @ keys.T, lam)
        via_memit = solve_memit(w, keys, targets, np.eye(32), keys @ keys.T, lam)
        scale = max(np.linalg.norm(via_memit), 1e-12)
        assert np.linalg.norm(via_alpha - via_memit) <= 1e-9 * scale

    def test_preserved_keys_annihilated(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            w, keys, targets, k_const = random_instance(rng, p=12)
            proj = nullspace_projector(k_const @ k_const.T)
            delta = solve_alphaedit(w, keys, targets, proj, keys @ keys.T, 0.1)
            bound = 1e-8 * np.linalg.norm(delta) * np.linalg.norm(k_const)
            assert np.linalg.norm(delta @ k_const) <= bound
            assert np.linalg.norm(delta) > 0

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 40),
        n=st.integers(1, 30),
        p_extra=st.integers(-40, 20),
        rel_tol=st.floats(1e-12, 0.5),
        lam=st.floats(1e-2, 1e2),
    )
    def test_preserved_keys_annihilated_at_any_rel_tol(self, seed, h, n, p_extra, rel_tol, lam):
        # The delta carries a trailing projector factor, so it annihilates the
        # preserved keys' part outside the projector's null space to rounding.
        # What it leaves is bounded by the preserved energy the projector
        # counts as null: ||P K_p||_F^2 = sum of the null eigenvalues, each at
        # most rel_tol times the largest.
        rng = np.random.default_rng(seed)
        d, p = int(rng.integers(1, h + 1)), max(1, h + p_extra)
        w, keys, targets, k_const = random_instance(rng, d=d, h=h, n=n, p=p)
        cov = k_const @ k_const.T
        proj = nullspace_projector(cov, rel_tol=rel_tol)
        delta = solve_alphaedit(w, keys, targets, proj, keys @ keys.T, lam)
        scale = np.linalg.norm(delta) * np.linalg.norm(k_const)
        outside = k_const - proj.projector @ k_const
        assert np.linalg.norm(delta @ outside) <= 1e-10 * scale
        null_energy = proj.null_dim * rel_tol * np.linalg.eigvalsh(cov)[-1]
        leak = np.linalg.norm(delta @ k_const)
        assert leak <= np.linalg.norm(delta, 2) * np.sqrt(null_energy) * (1 + 1e-6) + 1e-10 * scale

    def test_zero_error_term_gives_zero_delta(self):
        rng = np.random.default_rng(9)
        w, keys, _, k_const = random_instance(rng, p=12)
        proj = nullspace_projector(k_const @ k_const.T)
        delta = solve_alphaedit(w, keys, w @ keys, proj, keys @ keys.T, 0.1)
        assert np.allclose(delta, 0.0, atol=1e-10)

    def test_cond_limit_enforced(self):
        rng = np.random.default_rng(15)
        w, keys, targets, k_const = random_instance(rng, p=12)
        proj = nullspace_projector(k_const @ k_const.T)
        with pytest.raises(IllConditionedError) as err:
            solve_alphaedit(w, keys, targets, proj, keys @ keys.T, 0.1, cond_limit=1.0)
        assert 1.0 < err.value.condition_estimate < np.inf

    def test_singular_projected_system_raises(self):
        rng = np.random.default_rng(10)
        w, keys, targets, _ = random_instance(rng, n=2)
        proj = nullspace_projector(np.zeros((32, 32)))
        with pytest.raises(IllConditionedError):
            solve_alphaedit(w, keys, targets, proj, keys @ keys.T, 0.0)


def _zero_weight_requests(model, tokens):
    # Inputs sitting exactly on codebook columns of a zero-weight model have
    # zero desired residual, so every solve returns a zero delta.
    inputs = model.codebook[:, tokens]
    return LanguageRequests(language_id=0, inputs=inputs, new_tokens=np.asarray(tokens))


class TestEditModel:
    def test_noop_edits_give_zero_deltas(self):
        from test_model import zero_model

        model = zero_model()
        req = _zero_weight_requests(model, [1, 2])
        delta_set = edit_requests(model, [req], np.zeros((4, 0)), 0.1, method="alphaedit")
        for (layer, lang), delta in delta_set.entries.items():
            assert np.allclose(delta, 0.0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 16),
        d_frac=st.floats(0.0, 1.0),
        n_layers=st.integers(2, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 6),
        lam=st.floats(0.1, 30.0),
        cov_mode=st.sampled_from([PER_LANGUAGE, SHARED]),
    )
    def test_memit_deltas_match_solve_memit(self, seed, h, d_frac, n_layers, m, n, lam, cov_mode):
        # edit_model inverts each memit system in numpy; every delta must be
        # solve_memit's Cholesky solve of the same system on that language's
        # working copy.  Preserved terms of the form I + B B^T / h keep each
        # system's condition number in the hundreds.
        rng = np.random.default_rng(seed)
        d = 2 + int(d_frac * (h - 2))
        edit_layers = tuple(range(2, n_layers + 1))
        model = random_model(rng, d=d, h=h, n_layers=n_layers, vocab=12, edit_layers=edit_layers)
        requests = [
            LanguageRequests(lang, rng.standard_normal((d, n)), rng.integers(0, 12, n)) for lang in range(m)
        ]
        preserved = {}
        for layer in edit_layers:
            b = rng.standard_normal((h, h))
            preserved[layer] = np.eye(h) + b @ b.T / h
        delta_set = edit_model(model, prepare(model, requests), preserved, lam, cov_mode=cov_mode)
        working = {req.language_id: model for req in requests}
        prefixes = {req.language_id: compute_prefix(model, req.inputs) for req in requests}
        for layer in edit_layers:
            batches = {
                req.language_id: keys_and_targets(
                    working[req.language_id], prefixes[req.language_id], req.new_tokens, layer
                )
                for req in requests
            }
            shared = sum(keys @ keys.T for keys, _ in batches.values())
            for lang, (keys, targets) in batches.items():
                cov_request, count = (shared, m * n) if cov_mode == SHARED else (keys @ keys.T, n)
                w_out = working[lang].layer(layer).w_out
                expected = solve_memit(
                    w_out, keys, targets, preserved[layer] * count, 0.5 * (cov_request + cov_request.T), lam
                )
                got = delta_set.delta(layer, lang)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
                working[lang] = working[lang].with_w_out(layer, w_out + got)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 16),
        d_frac=st.floats(0.0, 1.0),
        null_frac=st.floats(0.0, 1.0),
        n_layers=st.integers(2, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 6),
        lam=st.floats(0.05, 10.0),
        cov_mode=st.sampled_from([PER_LANGUAGE, SHARED]),
    )
    def test_alphaedit_deltas_are_solve_alphaedit_bits(
        self, seed, h, d_frac, null_frac, n_layers, m, n, lam, cov_mode
    ):
        # edit_model forms, factors and solves a layer's alphaedit systems in
        # separate phases; every delta must still be the bits of
        # solve_alphaedit on that language's working copy.
        rng = np.random.default_rng(seed)
        d = 2 + int(d_frac * (h - 2))
        edit_layers = tuple(range(2, n_layers + 1))
        model = random_model(rng, d=d, h=h, n_layers=n_layers, vocab=12, edit_layers=edit_layers)
        requests = [
            LanguageRequests(lang, rng.standard_normal((d, n)), rng.integers(0, 12, n)) for lang in range(m)
        ]
        preserved = {}
        for layer in edit_layers:
            kept = rng.standard_normal((h, int(null_frac * h)))
            preserved[layer] = nullspace_projector(kept @ kept.T, rel_tol=1e-8)
        delta_set = edit_model(
            model, prepare(model, requests), preserved, lam, method="alphaedit", cov_mode=cov_mode
        )
        working = {req.language_id: model for req in requests}
        prefixes = {req.language_id: compute_prefix(model, req.inputs) for req in requests}
        for layer in edit_layers:
            batches = {
                req.language_id: keys_and_targets(
                    working[req.language_id], prefixes[req.language_id], req.new_tokens, layer
                )
                for req in requests
            }
            shared = cov_mod.cov_shared([keys for keys, _ in batches.values()])
            for lang, (keys, targets) in batches.items():
                cov_request = shared if cov_mode == SHARED else cov_mod.cov_per_language(keys)
                w_out = working[lang].layer(layer).w_out
                expected = solve_alphaedit(w_out, keys, targets, preserved[layer], cov_request, lam)
                got = delta_set.delta(layer, lang)
                assert np.array_equal(got, expected)
                working[lang] = working[lang].with_w_out(layer, w_out + got)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 16),
        d_frac=st.floats(0.0, 1.0),
        null_frac=st.floats(0.0, 1.0),
        n_layers=st.integers(2, 4),
        m=st.integers(1, 3),
        n=st.integers(1, 6),
        lam=st.floats(0.05, 10.0),
        method=st.sampled_from(["memit", "alphaedit"]),
    )
    def test_shared_deltas_sum_to_the_joint_edit_at_the_first_edit_layer(
        self, seed, h, d_frac, null_frac, n_layers, m, n, lam, method
    ):
        # In the shared covariance mode every language solves the same system
        # and, at the first edit layer, on the same unedited weights, so the
        # solve is linear in the stacked right-hand sides: the deltas sum to
        # the edit of one batch holding every language's requests.
        rng = np.random.default_rng(seed)
        d = 2 + int(d_frac * (h - 2))
        edit_layers = tuple(range(2, n_layers + 1))
        model = random_model(rng, d=d, h=h, n_layers=n_layers, vocab=12, edit_layers=edit_layers)
        requests = [
            LanguageRequests(lang, rng.standard_normal((d, n)), rng.integers(0, 12, n)) for lang in range(m)
        ]
        joint = LanguageRequests(
            0, np.hstack([req.inputs for req in requests]), np.concatenate([req.new_tokens for req in requests])
        )
        preserved = {}
        for layer in edit_layers:
            if method == "memit":
                b = rng.standard_normal((h, h))
                preserved[layer] = np.eye(h) + b @ b.T / h
            else:
                kept = rng.standard_normal((h, int(null_frac * h)))
                preserved[layer] = nullspace_projector(kept @ kept.T, rel_tol=1e-8)
        shared = edit_model(model, prepare(model, requests), preserved, lam, method=method, cov_mode=SHARED)
        edited = edit_model(model, prepare(model, [joint]), preserved, lam, method=method, cov_mode=SHARED)
        first = edit_layers[0]
        expected = edited.delta(first, 0)
        total = merge_sum(shared.layer_deltas(first))
        assert np.linalg.norm(total - expected) <= 1e-9 * np.linalg.norm(expected)

    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    def test_memit_cond_limit_raises(self, small_bench, cov_mode):
        dataset, model = small_bench
        with pytest.raises(IllConditionedError) as err:
            edit_requests(
                model, dataset.all_language_requests(), dataset.preserved_inputs_all(), DEFAULT_LAM_MEMIT,
                cov_mode=cov_mode, cond_limit=1.0,
            )
        assert err.value.condition_estimate > 1.0

    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    def test_memit_indefinite_system_raises(self, small_bench, cov_mode):
        # A negative definite preserved term outweighs the request moment.
        dataset, model = small_bench
        negative = {layer: -np.eye(model.h) for layer in model.edit_layers}
        with pytest.raises(IllConditionedError, match="not positive definite"):
            edit_model(
                model, prepare(model, dataset.all_language_requests()), negative, DEFAULT_LAM_MEMIT,
                cov_mode=cov_mode,
            )

    def test_mono_equals_m1_merge_pipeline(self, small_bench):
        # Mono reads each language's deltas out of the all-language
        # per-language delta set; that must equal a fresh single-language
        # edit pushed through the m=1 sum merge.
        dataset, model = small_bench
        preserved = preserved_terms(model, dataset.preserved_inputs_all())
        probes = probe_batch(model, dataset)
        all_languages = edit_model(model, prepare(model, dataset.all_language_requests()), preserved, 2.75)
        mono = run_mono(model, probes, all_languages, alpha=1.0)
        for lang in range(dataset.m_languages):
            single = edit_model(model, prepare(model, [dataset.language_requests(lang)]), preserved, 2.75)
            merged = {layer: merge_sum(single.layer_deltas(layer)) for layer in single.layers}
            edited = apply_update(model, merged, 1.0)
            row_pipeline = evaluate_all([edited], probes)[0][lang]
            assert mono[lang] == row_pipeline

    def test_per_language_deltas_solve_own_objective(self):
        # Two languages with disjoint keys: each language's delta must reach
        # the gradient-descent optimum of its own objective at each layer.
        rng = np.random.default_rng(11)
        model = random_model(rng, d=6, h=10, n_layers=3, vocab=12, edit_layers=(2,))
        reqs = [
            LanguageRequests(0, rng.standard_normal((6, 3)), np.array([0, 1, 2])),
            LanguageRequests(1, rng.standard_normal((6, 3)), np.array([3, 4, 5])),
        ]
        preserved = rng.standard_normal((6, 8))
        lam = 1.5
        delta_set = edit_requests(model, reqs, preserved, lam)
        _, k_const = cov_mod.const_stats(model, preserved, 2)
        for req in reqs:
            keys = cov_mod.request_keys(model, req.inputs, 2)
            _, targets = keys_and_targets(model, compute_prefix(model, req.inputs), req.new_tokens, 2)
            scaled_const = k_const * np.sqrt(keys.shape[1] / k_const.shape[1])
            oracle = descend_edit_objective(
                model.layer(2).w_out, keys, targets, scaled_const, lam
            )
            delta = delta_set.delta(2, req.language_id)
            j_solver = edit_objective(model.layer(2).w_out, delta, keys, targets, scaled_const, lam)
            j_oracle = edit_objective(model.layer(2).w_out, oracle, keys, targets, scaled_const, lam)
            assert j_solver <= j_oracle * (1 + 1e-6)

    def test_deltas_relative_to_original_weights(self, small_bench):
        dataset, model = small_bench
        delta_set = edit_requests(
            model, dataset.all_language_requests(), dataset.preserved_inputs_all(), 2.75, cov_mode=SHARED
        )
        assert delta_set.layers == model.edit_layers
        assert delta_set.language_ids == tuple(range(dataset.m_languages))
        assert delta_set.cov_mode == SHARED
        for (layer, lang), delta in delta_set.entries.items():
            assert delta.shape == model.layer(layer).w_out.shape

    def test_duplicate_language_ids_rejected(self, small_bench):
        dataset, model = small_bench
        req = dataset.language_requests(0)
        with pytest.raises(ShapeError):
            edit_requests(model, [req, req], dataset.preserved_inputs_all(), DEFAULT_LAM_MEMIT)

    def test_alphaedit_preservation_on_model_keys(self):
        # With a deliberately small preserved sample the null space is real;
        # the produced deltas must leave preserved keys untouched.
        rng = np.random.default_rng(12)
        model = random_model(rng, d=6, h=16, n_layers=3, vocab=12, edit_layers=(2, 3))
        reqs = [LanguageRequests(0, rng.standard_normal((6, 3)), np.array([0, 1, 2]))]
        preserved = rng.standard_normal((6, 4))
        delta_set = edit_requests(model, reqs, preserved, 0.1, method="alphaedit")
        for layer in delta_set.layers:
            _, k_const = cov_mod.const_stats(model, preserved, layer)
            delta = delta_set.delta(layer, 0)
            bound = 1e-8 * np.linalg.norm(delta) * np.linalg.norm(k_const)
            assert np.linalg.norm(delta @ k_const) <= max(bound, 1e-15)


class TestLayerFactorisation:
    @pytest.mark.parametrize(
        "method, library, routines",
        [("memit", np.linalg, ("cholesky", "inv")), ("alphaedit", scipy.linalg, ("lu_factor",))],
        ids=["memit-cholesky", "alphaedit-lu_factor"],
    )
    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    def test_one_factor_per_layer_shared_per_language_otherwise(
        self, small_bench, monkeypatch, method, library, routines, cov_mode
    ):
        # memit checks and inverts each system in numpy, a layer's systems as
        # one stack; alphaedit LU-factors each in scipy.  Systems are counted.
        dataset, model = small_bench
        requests = prepare(model, dataset.all_language_requests())
        preserved = preserved_terms(model, dataset.preserved_inputs_all(), method, rel_tol=0.02)
        calls = Counter()
        for name in routines:
            original = getattr(library, name)

            def counted(system, *args, _name=name, _original=original, **kwargs):
                calls[_name] += len(system) if np.ndim(system) == 3 else 1
                return _original(system, *args, **kwargs)

            monkeypatch.setattr(library, name, counted)
        edit_model(model, requests, preserved, SolverSettings(method=method).lam, method=method, cov_mode=cov_mode)
        per_layer = 1 if cov_mode == SHARED else dataset.m_languages
        assert calls == {name: len(model.edit_layers) * per_layer for name in routines}

    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    def test_alphaedit_scipy_calls_run_once_per_layer(self, small_bench, monkeypatch, cov_mode):
        # numpy and scipy bundle separate OpenBLAS builds whose thread pools
        # stall each other when calls alternate, so each edit layer's LU
        # factors, condition estimates and solves run back to back, between
        # the numpy steps that collect keys and moments and update the
        # working copies.
        dataset, model = small_bench
        requests = prepare(model, dataset.all_language_requests())
        preserved = preserved_terms(model, dataset.preserved_inputs_all(), "alphaedit", rel_tol=0.02)
        calls = []

        def record(owner, name, library):
            original = getattr(owner, name)

            def recorded(*args, **kwargs):
                calls.append((library, name))
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorded)

        for name in ("lu_factor", "lu_solve"):
            record(scipy.linalg, name, "scipy")
        record(scipy.linalg.lapack, "dgecon", "scipy")
        for name in ("cov_per_language", "cov_shared"):
            record(cov_mod, name, "numpy")
        record(model_mod, "keys_and_targets_stack", "numpy")
        record(type(model), "with_w_out", "numpy")
        edit_model(model, requests, preserved, DEFAULT_LAM_ALPHAEDIT, method="alphaedit", cov_mode=cov_mode)
        runs = []
        previous = None
        for library, name in calls:
            if library == "scipy":
                if previous != "scipy":
                    runs.append([])
                runs[-1].append(name)
            previous = library
        m = dataset.m_languages
        if cov_mode == SHARED:
            layer_run = ["lu_factor", "dgecon"] + ["lu_solve"] * m
        else:
            layer_run = ["lu_factor", "dgecon", "lu_solve"] * m
        assert runs == [layer_run] * len(model.edit_layers)

    @pytest.mark.parametrize("method", ["memit", "alphaedit"])
    def test_shared_factor_gives_each_languages_own_solve(self, small_bench, method):
        # At the first edit layer every working copy is the base, so each
        # language's delta must be the bits of its own solve of the shared system.
        dataset, model = small_bench
        requests = dataset.all_language_requests()
        preserved = preserved_terms(model, dataset.preserved_inputs_all(), method, rel_tol=0.02)
        delta_set = edit_model(
            model, prepare(model, requests), preserved, SolverSettings(method=method).lam, method=method, cov_mode=SHARED
        )
        first = model.edit_layers[0]
        batches = [keys_and_targets(model, compute_prefix(model, r.inputs), r.new_tokens, first) for r in requests]
        shared = sum(keys @ keys.T for keys, _ in batches)
        shared = 0.5 * (shared + shared.T)
        w_out = model.layer(first).w_out
        for req, (keys, targets) in zip(requests, batches):
            if method == "memit":
                # The editor's own per-language memit builder, given the shared system.
                count = sum(r.inputs.shape[1] for r in requests)
                system = _memit_matrix(preserved[first] * count, shared, DEFAULT_LAM_MEMIT)
                own = (_memit_inverse(*system, DEFAULT_COND_LIMIT) @ _rhs(None, w_out, keys, targets)).T
            else:
                own = solve_alphaedit(
                    w_out, keys, targets, preserved[first], shared, DEFAULT_LAM_ALPHAEDIT
                )
            assert np.array_equal(delta_set.delta(first, req.language_id), own)

    def test_request_prefix_of_another_model_rejected(self, small_bench):
        dataset, model = small_bench
        other = model.with_w_out(model.edit_layers[-1], model.layer(model.edit_layers[-1]).w_out * 1.5)
        prepared = [request_prefix(other, r) for r in dataset.all_language_requests()]
        preserved = preserved_terms(model, dataset.preserved_inputs_all())
        with pytest.raises(ShapeError, match="another model"):
            edit_model(model, prepared, preserved, DEFAULT_LAM_MEMIT)

    def test_request_prefixes_give_the_same_deltas(self, small_bench):
        # One run reuses each language's prefix for every covariance mode:
        # edits must neither depend on the requests' order nor change the
        # prefixes they read, so reused prefixes give fresh prefixes' bits.
        dataset, model = small_bench
        requests = dataset.all_language_requests()
        preserved = preserved_terms(model, dataset.preserved_inputs_all())
        reused = prepare(model, reversed(requests))
        for mode in (PER_LANGUAGE, SHARED, PER_LANGUAGE):
            fresh = edit_model(model, prepare(model, requests), preserved, DEFAULT_LAM_MEMIT, cov_mode=mode)
            again = edit_model(model, reused, preserved, DEFAULT_LAM_MEMIT, cov_mode=mode)
            assert again.entries.keys() == fresh.entries.keys()
            for key, delta in fresh.entries.items():
                assert np.array_equal(again.entries[key], delta)


def per_language_loop(model, prepared, preserved, lam, method, cov_mode, cond_limit=DEFAULT_COND_LIMIT):
    """The edit loop one language at a time: the reference of edit_model's stacks.

    Each language's keys and targets come from its own walk, and each of its
    systems is factored and solved on its own (a shared system once per
    language), through the 2-d calls of the solver helpers.
    """
    prepared = sorted(prepared, key=lambda prep: prep.language_id)
    working = {prep.language_id: model for prep in prepared}
    entries = {}
    for layer in model.edit_layers:
        term = preserved[layer]
        projector = term.projector if method == "alphaedit" else None
        batches = []
        for prep in prepared:
            copy = working[prep.language_id]
            if layer == prep.prefix.layer:
                keys, targets = prep.prefix.key, prep.targets
            else:
                keys, targets = keys_and_targets(copy, prep.prefix, prep.requests.new_tokens, layer)
            batches.append((keys, _rhs(projector, copy.layer(layer).w_out, keys, targets)))

        def system(cov, count):
            if method == "memit":
                return _memit_matrix(term * count, cov, lam)
            return _alphaedit_matrix(term.projector, cov, lam)

        if cov_mode == SHARED:
            shared = cov_mod.cov_shared([keys for keys, _ in batches])
            systems = [system(shared, sum(keys.shape[1] for keys, _ in batches))] * len(batches)
        else:
            systems = [system(cov_mod.cov_per_language(keys), keys.shape[1]) for keys, _ in batches]
        for prep, (matrix, norm), (_, rhs) in zip(prepared, systems, batches):
            if method == "memit":
                solution = _memit_inverse(matrix, norm, cond_limit) @ rhs
            else:
                solution = _alphaedit_lu(matrix, norm, cond_limit)(rhs)
            entries[(layer, prep.language_id)] = solution.T
            w_out = working[prep.language_id].layer(layer).w_out
            working[prep.language_id] = working[prep.language_id].with_w_out(layer, w_out + solution.T)
    return entries


def assert_stacked_loop_bits(model, requests, preserved, lam, method, cov_mode):
    prepared = prepare(model, requests)
    stacked = edit_model(model, prepared, preserved, lam, method=method, cov_mode=cov_mode)
    reference = per_language_loop(model, prepared, preserved, lam, method, cov_mode)
    assert stacked.entries.keys() == reference.keys()
    for key, delta in reference.items():
        assert np.array_equal(stacked.entries[key], delta), key


def random_preserved(rng, method, h, edit_layers, null_frac=0.5):
    """A well-conditioned memit term, or an alphaedit projector with a real null space, per layer."""
    preserved = {}
    for layer in edit_layers:
        if method == "memit":
            b = rng.standard_normal((h, h))
            preserved[layer] = np.eye(h) + b @ b.T / h
        else:
            kept = rng.standard_normal((h, int(null_frac * h)))
            preserved[layer] = nullspace_projector(kept @ kept.T, rel_tol=1e-8)
    return preserved


class TestStackedEditLoop:
    @pytest.mark.parametrize("stacked", [3, 2], ids=["one-stack", "stacks-of-2"])
    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    @pytest.mark.parametrize("method", ["memit", "alphaedit"])
    def test_bench_deltas_are_the_per_language_loops_bits(self, small_bench, monkeypatch, method, cov_mode, stacked):
        # Three languages as one stack, or as a stack of two and one of one.
        dataset, model = small_bench
        monkeypatch.setattr(model_mod, "STACK_BYTES", stacked * 8 * model.h * model.h)
        preserved = preserved_terms(model, dataset.preserved_inputs_all(), method, rel_tol=0.02)
        lam = SolverSettings(method=method).lam
        assert_stacked_loop_bits(model, dataset.all_language_requests(), preserved, lam, method, cov_mode)

    @pytest.mark.parametrize("stack_bytes", [model_mod.STACK_BYTES, 2**24], ids=["default", "one-stack"])
    @pytest.mark.parametrize("cov_mode", [PER_LANGUAGE, SHARED])
    @pytest.mark.parametrize("method", ["memit", "alphaedit"])
    def test_wide_deltas_are_the_per_language_loops_bits(self, monkeypatch, method, cov_mode, stack_bytes):
        # The wide benchmark's shape: d=128, h=256, 64 requests a language.
        # By default its languages solve one at a time; with room for all
        # four systems they walk and solve as one stack.
        monkeypatch.setattr(model_mod, "STACK_BYTES", stack_bytes)
        rng = np.random.default_rng(40)
        model = random_model(rng, d=128, h=256, n_layers=4, vocab=64, edit_layers=(2, 3, 4))
        requests = [
            LanguageRequests(lang, rng.standard_normal((128, 64)), rng.integers(0, 64, 64)) for lang in range(4)
        ]
        preserved = random_preserved(rng, method, 256, model.edit_layers)
        lam = DEFAULT_LAM_MEMIT if method == "memit" else DEFAULT_LAM_ALPHAEDIT
        assert_stacked_loop_bits(model, requests, preserved, lam, method, cov_mode)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        h=st.integers(2, 24),
        d_frac=st.floats(0.0, 1.0),
        n_layers=st.integers(2, 4),
        counts=st.lists(st.integers(1, 8), min_size=1, max_size=5),
        lam=st.floats(0.05, 10.0),
        method=st.sampled_from(["memit", "alphaedit"]),
        cov_mode=st.sampled_from([PER_LANGUAGE, SHARED]),
    )
    def test_deltas_are_the_per_language_loops_bits(self, seed, h, d_frac, n_layers, counts, lam, method, cov_mode):
        # Languages with one request count walk as one stack; unequal
        # counts make several stacks.
        rng = np.random.default_rng(seed)
        d = 2 + int(d_frac * (h - 2))
        edit_layers = tuple(range(2, n_layers + 1))
        model = random_model(rng, d=d, h=h, n_layers=n_layers, vocab=12, edit_layers=edit_layers)
        requests = [
            LanguageRequests(lang, rng.standard_normal((d, n)), rng.integers(0, 12, n))
            for lang, n in enumerate(counts)
        ]
        preserved = random_preserved(rng, method, h, edit_layers, null_frac=float(rng.uniform()))
        assert_stacked_loop_bits(model, requests, preserved, lam, method, cov_mode)

    def test_a_stack_raises_the_first_failing_systems_error(self):
        # Stacked, memit's systems are checked as a loop over them would be:
        # the first one that fails raises, whichever check it fails.
        rng = np.random.default_rng(41)
        b = rng.standard_normal((6, 6))
        good = np.eye(6) + b @ b.T
        steep = np.diag([1e6, 1, 1, 1, 1, 1e-9])
        indefinite = -np.eye(6)
        norms = lambda systems: np.array([np.linalg.norm(m, 1) for m in systems])
        for systems, raised in (
            ([good, steep, indefinite], "condition estimate"),
            ([good, indefinite, steep], "not positive definite"),
        ):
            stack = np.stack(systems)
            with pytest.raises(IllConditionedError, match=raised):
                _memit_inverse(stack, norms(systems), 1e12)
        inverse = _memit_inverse(np.stack([good, good]), norms([good, good]), 1e12)
        assert np.array_equal(inverse[1], _memit_inverse(good, np.linalg.norm(good, 1), 1e12))
