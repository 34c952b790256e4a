"""Closed-form editing solvers and the batch editing driver.

Both solvers compute a perturbation of a layer's down-projection that maps
request keys onto target values while limiting damage to preserved keys:

* ``solve_memit`` solves the ridge-style normal equations, weighting the
  preserved second moment by ``lam``.
* ``solve_alphaedit`` first projects onto the null space of the preserved
  second moment, so preserved keys are (numerically) untouched, and uses
  ``lam`` as a plain Tikhonov term.

``edit_model`` runs either solver over every edit layer in bottom-to-top
order for every language, recomputing keys and targets on per-language
working copies, and returns each covariance mode's per-(layer, language)
perturbations relative to the original weights.  The input model is never
mutated.  The languages step through each layer in stacks: their working
copies walk as one stack (:func:`lamedit.model.keys_and_targets_stack`),
and their per-language covariances, right-hand sides, memit systems,
Cholesky checks, inverses and condition numbers are stacked numpy calls,
each slice through the kernel of its own call on the same shapes, so every
delta keeps the bits of a loop over the languages.  A stack holds as many
languages as keep its (h, h) systems within
:data:`lamedit.model.STACK_BYTES`: a dataset's 12 at h=64, one at a time at
h=256.

One ``edit_model`` call edits in every covariance mode a run needs, and
prepares what the modes share on the unedited model once: each stack's
request prefix, and its keys and targets at the first edit layer, from one
walk.  The preserved term of every layer comes in from
:func:`preserved_terms` (one walk of the preserved sample).

In each mode, each edit layer takes one pass per stack.  Every stack first
walks to the layer for its keys and targets, and in the shared covariance
mode the layer's one system (the same matrix for every language) is formed
from all their keys.  Then, in language order, each stack forms its
right-hand sides (and, in the per-language mode, its own systems), solves
them, stores each (d, h) delta under its (layer, language) and moves its
working copies on.  One helper forms a system, or a stack's, and solves it
for the method:

* memit's systems stay in numpy, on its one thread (:mod:`lamedit.blas`): a
  Cholesky check, one explicit inverse per system, its exact 1-norm
  condition number and a matmul per right-hand side.
* alphaedit's systems go through scipy's LU factor, ``dgecon`` and LU solve,
  whose bits the rank-deficient tsvm merges of its deltas are sensitive to.
  Each stack's scipy calls run in one :func:`lamedit.blas.scipy_run` on the
  main thread, which stops scipy's idle workers after it so they do not
  take the cores from numpy's next calls; that changes no bit.  A shared
  system is factored and condition-checked once, inside the first stack's
  run.  These, with the projector's ``eigh`` (in its own run), are the only
  scipy calls of ``run`` and ``sweep``.

numpy and scipy bundle separate OpenBLAS builds, but numpy runs on one
thread with no pool and every scipy run stops scipy's pool after it, so
their calls may alternate and a handover per stack costs little: at the
wide benchmark's h=256, six LU factor-and-solve pairs took 17.7 ms in one
handover and 18.4 ms in six (medians of 60, interleaved, on a shared 2-core
Xeon), about 0.2 ms a handover.

``solve_memit`` keeps scipy's Cholesky solve, whose bits fix the fitted
backbone; the fit is set-up, which calls scipy outside the handover.  Both
``solve_*`` functions build their system and right-hand side with the same
helpers as ``edit_model``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import blas
from . import covariance as cov_mod
from . import model as model_core
from .covariance import PER_LANGUAGE, SHARED
from .errors import IllConditionedError, ShapeError

METHOD_MEMIT = "memit"
METHOD_ALPHAEDIT = "alphaedit"
METHODS = (METHOD_MEMIT, METHOD_ALPHAEDIT)

DEFAULT_LAM_MEMIT = 2.75
DEFAULT_LAM_ALPHAEDIT = 0.1
DEFAULT_REL_TOL = 1e-6
# Ceiling on the 1-norm condition number of a solve's system: exact for
# edit_model's memit systems, LAPACK's estimate otherwise (dpocon for
# solve_memit, dgecon for alphaedit).
DEFAULT_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NullProjector:
    """Orthogonal projector onto the null space of a preserved second moment."""

    projector: np.ndarray  # (h, h)
    null_dim: int

    def __post_init__(self):
        proj = np.asarray(self.projector, dtype=float)
        if proj.ndim != 2 or proj.shape[0] != proj.shape[1]:
            raise ShapeError("projector must be square")
        object.__setattr__(self, "projector", proj)


@dataclass(frozen=True)
class LanguageRequests:
    """One language's edit batch: inputs column-wise plus target tokens."""

    language_id: int
    inputs: np.ndarray  # (d, n)
    new_tokens: np.ndarray  # (n,)

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        tokens = np.asarray(self.new_tokens)
        if inputs.ndim != 2 or inputs.shape[1] != tokens.shape[0] or tokens.ndim != 1:
            raise ShapeError("inputs must be (d, n) matching n new_tokens")
        if inputs.shape[1] < 1:
            raise ShapeError("request batch must be nonempty")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "new_tokens", tokens.astype(np.int64))


@dataclass(frozen=True)
class DeltaSet:
    """All per-(layer, language) perturbations from one editing run."""

    cov_mode: str
    layers: tuple[int, ...]
    language_ids: tuple[int, ...]
    entries: dict  # (layer, language_id) -> ndarray (d, h)

    def delta(self, layer, language_id):
        return self.entries[(layer, language_id)]

    def layer_deltas(self, layer):
        """Delta matrices of one layer in ascending language order."""
        return [self.entries[(layer, lang)] for lang in self.language_ids]


def _check_condition(cond, cond_limit, system_name):
    """Raise unless a system's 1-norm condition number is within the limit."""
    if not cond <= cond_limit:
        raise IllConditionedError(
            f"{system_name} condition estimate {cond:.3e} exceeds limit {cond_limit:.1e}",
            condition_estimate=cond,
        )


def _cond_from_rcond(rcond):
    """Condition number from LAPACK's reciprocal estimate; a zero estimate is infinite."""
    return 1.0 / rcond if rcond > 0 else float("inf")


def _transposed(matrices):
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(matrices, -1, -2)


def _norm_1(matrices):
    """The 1-norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(matrices, 1, axis=(-2, -1))


def _rhs(projector, w_out, keys, targets):
    """One solve's (h, d) right-hand side, or a stack's; alphaedit's carries ``projector``, memit's none."""
    residual = targets - w_out @ keys
    if projector is None:
        return keys @ _transposed(residual)
    return projector @ keys @ _transposed(residual)


def _memit_matrix(cov_preserved, cov_request, lam):
    """The symmetrised system ``lam * cov_preserved + cov_request`` and its 1-norm, or a stack's."""
    system = lam * cov_preserved + cov_request
    system = 0.5 * (system + _transposed(system))
    return system, _norm_1(system)


def _memit_cholesky(system, norm, cond_limit):
    """Solver of a memit system through scipy's Cholesky factor, checked by ``dpocon``."""
    try:
        factor = scipy.linalg.cho_factor(system)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise IllConditionedError(f"normal-equation system is not positive definite: {exc}") from exc
    rcond, _ = scipy.linalg.lapack.dpocon(factor[0], norm)
    _check_condition(_cond_from_rcond(rcond), cond_limit, "normal-equation system")
    return functools.partial(scipy.linalg.cho_solve, factor)


def _memit_inverse(system, norm, cond_limit):
    """The explicit inverse of a memit system, or of each of a stack, in numpy's LAPACK.

    A Cholesky factorisation checks the system positive definite and the
    inverse is formed once, so each right-hand side costs one matmul.  Its
    condition is the exact 1-norm condition number ``||S||_1 ||S^-1||_1``,
    never below ``dpocon``'s estimate.  A stack runs each system through
    the kernels of its own call, and raises the error of the first system
    that fails, as a loop over them would.
    """
    try:
        np.linalg.cholesky(system)
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError as exc:
        if system.ndim == 3:
            for one, one_norm in zip(system, norm):
                _memit_inverse(one, one_norm, cond_limit)
        raise IllConditionedError(f"normal-equation system is not positive definite: {exc}") from exc
    for cond in np.atleast_1d(norm * _norm_1(inverse)):
        _check_condition(cond, cond_limit, "normal-equation system")
    return inverse


def _alphaedit_matrix(projector, cov_request, lam):
    """The transposed projected system ``(lam * I + cov_request @ P).T`` and its 1-norm, or a stack's."""
    system_t = _transposed(lam * np.eye(projector.shape[0]) + cov_request @ projector)
    return system_t, _norm_1(system_t)


def _alphaedit_lu(system_t, norm, cond_limit):
    """Solver of a projected system through scipy's LU factor, checked by ``dgecon``."""
    try:
        with warnings.catch_warnings():
            # An exactly singular factor shows up below as a zero rcond.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factor = scipy.linalg.lu_factor(system_t)
    except ValueError as exc:
        raise IllConditionedError(f"projected system cannot be factored: {exc}") from exc
    rcond, _ = scipy.linalg.lapack.dgecon(factor[0], norm)
    _check_condition(_cond_from_rcond(rcond), cond_limit, "projected system")
    return functools.partial(scipy.linalg.lu_solve, factor)


def _check_solve_shapes(w_out, keys, targets, lam):
    """``w_out``, ``keys`` and ``targets`` as float arrays of one solve's shapes."""
    w_out = np.asarray(w_out, dtype=float)
    keys = np.asarray(keys, dtype=float)
    targets = np.asarray(targets, dtype=float)
    d, h = w_out.shape
    if keys.shape[0] != h or targets.shape != (d, keys.shape[1]):
        raise ShapeError(
            f"inconsistent shapes: w_out {w_out.shape}, keys {keys.shape}, targets {targets.shape}"
        )
    if lam < 0:
        raise ShapeError("lam must be nonnegative")
    return w_out, keys, targets


def solve_memit(w_out, keys, targets, cov_preserved, cov_request, lam, cond_limit=DEFAULT_COND_LIMIT):
    """Ridge-style closed-form edit of one layer.

    Solves ``delta @ (lam * cov_preserved + cov_request) = residual @ keys.T``
    with ``residual = targets - w_out @ keys`` through one Cholesky factor of
    the system; the system matrix is never inverted explicitly.  LAPACK's
    ``dpocon`` estimates the 1-norm condition number from that factor, and a
    system that is not positive definite, or whose estimate exceeds
    ``cond_limit``, raises :class:`IllConditionedError`.

    Parameters
    ----------
    w_out : ndarray (d, h)
    keys : ndarray (h, n)
    targets : ndarray (d, n)
    cov_preserved, cov_request : ndarray (h, h)
        Caller applies any sample-count normalization to ``cov_preserved``.
    lam : float
        Preserved-term weight, >= 0.  With ``lam == 0`` the system must be
        invertible on its own.

    Returns
    -------
    delta : ndarray (d, h)
    """
    w_out, keys, targets = _check_solve_shapes(w_out, keys, targets, lam)
    h = w_out.shape[1]
    cov_preserved = np.asarray(cov_preserved, dtype=float)
    cov_request = np.asarray(cov_request, dtype=float)
    if cov_preserved.shape != (h, h) or cov_request.shape != (h, h):
        raise ShapeError("covariance matrices must be (h, h)")
    solve = _memit_cholesky(*_memit_matrix(cov_preserved, cov_request, lam), cond_limit)
    return solve(_rhs(None, w_out, keys, targets)).T


def nullspace_projector(cov_preserved, rel_tol=DEFAULT_REL_TOL):
    """Projector onto the span of eigenvectors with relatively tiny eigenvalues.

    Eigenvalues at or below ``rel_tol`` times the largest eigenvalue count as
    zero.  A zero matrix yields the identity (everything is null space); a
    full-rank matrix yields the zero projector; one whose Frobenius norm is
    not finite raises :class:`IllConditionedError`.  The eigendecomposition
    is scipy's ``dsyevd``, the kernel of numpy's ``eigh``, at scipy's thread
    count, inside :func:`lamedit.blas.scipy_run`.
    """
    cov = np.asarray(cov_preserved, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ShapeError("covariance must be square")
    with np.errstate(over="ignore"):  # an overflow shows as an infinite norm
        scale = np.linalg.norm(cov)
    if not np.isfinite(scale):
        raise IllConditionedError(f"preserved covariance norm is {scale}: an entry is not finite or too large")
    if scale > 0 and np.linalg.norm(cov - cov.T) > 1e-9 * scale:
        raise ShapeError("covariance is not symmetric")
    h = cov.shape[0]
    if scale == 0.0:
        return NullProjector(projector=np.eye(h), null_dim=h)
    with blas.scipy_run():
        eigvals, eigvecs = scipy.linalg.eigh(0.5 * (cov + cov.T), driver="evd", check_finite=False)
    top = eigvals[-1]
    if top <= 0:
        return NullProjector(projector=np.eye(h), null_dim=h)
    mask = eigvals <= rel_tol * top
    basis = eigvecs[:, mask]
    proj = basis @ basis.T
    proj = 0.5 * (proj + proj.T)
    return NullProjector(projector=proj, null_dim=int(mask.sum()))


def solve_alphaedit(w_out, keys, targets, projector, cov_request, lam, cond_limit=DEFAULT_COND_LIMIT):
    """Null-space constrained closed-form edit of one layer.

    Solves ``delta @ (lam * I + cov_request @ P) = residual @ keys.T @ P``
    where ``P`` projects onto the null space of the preserved second moment.
    Because ``P (lam I + cov_request P)^{-1} = (lam I + P cov_request)^{-1} P``
    the result carries a trailing factor of ``P``, so preserved keys map to
    (numerically) zero under the perturbation.  The transposed system is
    factored once by LU; LAPACK's ``dgecon`` estimates its 1-norm condition
    number from that factor, checked against ``cond_limit``.
    """
    w_out, keys, targets = _check_solve_shapes(w_out, keys, targets, lam)
    h = w_out.shape[1]
    if projector.projector.shape != (h, h):
        raise ShapeError(f"projector must be (h, h) = ({h}, {h}), got {projector.projector.shape}")
    cov_request = np.asarray(cov_request, dtype=float)
    if cov_request.shape != (h, h):
        raise ShapeError("cov_request must be (h, h)")
    proj = projector.projector
    solve = _alphaedit_lu(*_alphaedit_matrix(proj, cov_request, lam), cond_limit)
    return solve(_rhs(proj, w_out, keys, targets)).T


def preserved_terms(model, preserved_inputs, method=METHOD_MEMIT, rel_tol=DEFAULT_REL_TOL):
    """Per edit layer, the preserved-knowledge term the solver consumes.

    The statistics come from the unedited model, from one walk of the
    preserved inputs up to the last edit layer, so every covariance mode can
    share them.  memit takes
    the preserved second moment normalized per sample (``edit_model``
    rescales it to the request batch size); alphaedit takes the null-space
    projector of the raw moment.

    A backbone whose preserved keys overflow raises
    :class:`IllConditionedError` naming the first edit layer whose preserved
    covariance is not finite.

    Returns
    -------
    dict mapping layer -> ndarray (h, h) for memit, :class:`NullProjector`
    for alphaedit.
    """
    if method not in METHODS:
        raise ShapeError(f"unknown method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as a non-finite entry
        keys = model_core.keys_at(model, preserved_inputs, model.edit_layers)
        covs = {layer: cov_mod.cov_per_language(keys[layer]) for layer in model.edit_layers}
    terms = {}
    for layer, cov in covs.items():
        if not np.isfinite(cov).all():
            raise IllConditionedError(
                f"preserved covariance at edit layer {layer} is not finite: the preserved keys overflow"
            )
        if method == METHOD_MEMIT:
            terms[layer] = cov / max(keys[layer].shape[1], 1)
        else:
            terms[layer] = nullspace_projector(cov, rel_tol=rel_tol)
    return terms


def _layer_solver(method, term, cov_request, request_count, lam, cond_limit):
    """Form one layer's system, or a stack of them, and return the function that solves it.

    ``solve(rhs)`` takes a stack of (h, d) right-hand sides and returns their
    (h, d) solutions in order: a single system solves every right-hand side,
    a stack's k-th system the k-th.  memit's systems are Cholesky-checked and
    inverted here, in numpy, so each solve is one matmul.  alphaedit's
    transposed systems and their 1-norms are formed here, in numpy, and each
    ``solve`` is one :func:`lamedit.blas.scipy_run` on the calling thread: it
    LU-factors and ``dgecon``-checks each system of a stack before solving
    with it, and a single system once, inside the first ``solve``.
    """
    if method == METHOD_MEMIT:
        # The per-sample preserved moment rescaled to the request batch size,
        # so lam weighs preservation against requests independently of how
        # many keys went into either statistic.
        inverse = _memit_inverse(*_memit_matrix(term * request_count, cov_request, lam), cond_limit)
        return lambda rhs: inverse @ rhs
    system_t, norm = _alphaedit_matrix(term.projector, cov_request, lam)
    factored = None

    def solve(rhs):
        nonlocal factored
        with blas.scipy_run():
            if system_t.ndim == 3:
                return [_alphaedit_lu(one, one_norm, cond_limit)(b) for one, one_norm, b in zip(system_t, norm, rhs)]
            if factored is None:
                factored = _alphaedit_lu(system_t, norm, cond_limit)
            return [factored(b) for b in rhs]

    return solve


def edit_model(
    model,
    requests,
    preserved,
    lam,
    method=METHOD_MEMIT,
    cov_modes=(PER_LANGUAGE,),
    cond_limit=DEFAULT_COND_LIMIT,
):
    """One-step batch edit over all edit layers and languages, in each covariance mode.

    Per-language perturbations are computed against the original weights:
    each language gets its own working copy that accumulates only its own
    lower-layer edits, which is what makes the resulting per-language deltas
    independently mergeable.  The languages run in stacks, in language order:
    runs of consecutive languages of one request count (a dataset's all have
    one), each as long as keeps its (h, h) systems within
    :data:`lamedit.model.STACK_BYTES`.  Each stack's requests are prepared on
    ``model`` once for every mode: their stacked prefix (one
    :func:`lamedit.model.compute_prefix` per language) and their keys and
    targets at the first edit layer, where every working copy is still
    ``model``, from one walk.  Each mode then steps through the edit layers
    in turn; at each layer after the first, a stack's working copies take
    their keys and targets from one stacked walk, run on from the prefix.  In
    the shared covariance mode every language's system at a layer is the same
    matrix, so it is factored and condition-checked once per layer; in the
    per-language mode once per (layer, language), memit's as one stack whose
    first failing system, in language order, raises.  Each stack then
    solves, stores its deltas and moves its working copies on before the
    next stack solves (see the module docstring); alphaedit's solves of a
    stack run in one :func:`lamedit.blas.scipy_run`.  Every delta has the
    bits of a loop that walks, factors and solves one language at a time, in
    one mode at a time.

    Parameters
    ----------
    requests : sequence of LanguageRequests
        One per language; language ids must be unique.
    preserved : dict
        :func:`preserved_terms` of ``model`` for ``method``.
    lam : float
        For memit the preserved moment is normalized per sample and rescaled
        to the request batch size before weighting, so lam expresses the
        preservation-to-request ratio regardless of either sample count.
    cov_modes : sequence of "per_language" | "shared"
        The covariance modes to edit in: whether each language's request
        covariance is its own or the sum across all languages.  They run in
        sorted order, each once.

    Returns
    -------
    dict mapping each mode -> DeltaSet
    """
    if method not in METHODS:
        raise ShapeError(f"unknown method {method!r}")
    modes = sorted(set(cov_modes))
    if not modes or any(mode not in cov_mod.COV_MODES for mode in modes):
        raise ShapeError(f"covariance modes must be a nonempty choice of {cov_mod.COV_MODES}, got {cov_modes!r}")
    requests = sorted(requests, key=lambda req: req.language_id)
    if not requests:
        raise ShapeError("edit_model needs at least one language batch")
    language_ids = tuple(req.language_id for req in requests)
    if len(set(language_ids)) != len(language_ids):
        raise ShapeError(f"duplicate language ids in requests: {language_ids}")

    # The languages walk and solve in stacks, in language order: runs of
    # consecutive languages of one request count, each as long as keeps its
    # (h, h) systems within STACK_BYTES (a dataset's 12 languages at h=64,
    # one at a time at h=256).
    width = max(1, model_core.STACK_BYTES // (8 * model.h * model.h))
    groups = []
    for i, req in enumerate(requests):
        if groups and len(groups[-1]) < width and len(requests[groups[-1][0]].new_tokens) == len(req.new_tokens):
            groups[-1].append(i)
        else:
            groups.append([i])
    first = model.edit_layers[0]
    stacks = []  # (group, prefix, tokens, keys and targets at the first edit layer)
    for group in groups:
        prefix = model_core.Prefix.stack(model_core.compute_prefix(model, requests[i].inputs) for i in group)
        tokens = np.stack([requests[i].new_tokens for i in group])
        at_first = model_core.keys_and_targets_stack([model] * len(group), prefix, tokens, first)
        stacks.append((group, prefix, tokens, at_first))
    request_count = sum(len(req.new_tokens) for req in requests)

    delta_sets = {}
    for cov_mode in modes:
        entries = {}
        working = [model] * len(requests)
        for layer in model.edit_layers:
            term = preserved[layer]
            projector = term.projector if method == METHOD_ALPHAEDIT else None
            w_out = model.layer(layer).w_out  # every working copy's, until this layer's edit
            # Each stack's keys and targets at this layer, from one walk.
            walked = [
                at_first
                if layer == first
                else model_core.keys_and_targets_stack([working[i] for i in group], prefix, tokens, layer)
                for group, prefix, tokens, at_first in stacks
            ]
            if cov_mode == SHARED:
                shared = cov_mod.cov_shared(language_keys for keys, _ in walked for language_keys in keys)
                solve = _layer_solver(method, term, shared, request_count, lam, cond_limit)
            # In language order, each stack solves, stores its (d, h) deltas and
            # moves its working copies on.
            for group, (keys, targets) in zip(groups, walked):
                if cov_mode != SHARED:
                    solve = _layer_solver(method, term, cov_mod.cov_per_language(keys), keys.shape[-1], lam, cond_limit)
                for i, solution in zip(group, solve(_rhs(projector, w_out, keys, targets))):
                    entries[(layer, language_ids[i])] = solution.T
                    working[i] = working[i].with_w_out(layer, w_out + solution.T)
        delta_sets[cov_mode] = DeltaSet(
            cov_mode=cov_mode,
            layers=tuple(model.edit_layers),
            language_ids=language_ids,
            entries=entries,
        )
    return delta_sets
