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
working copies, and returns all per-(layer, language) perturbations relative
to the original weights.  The input model is never mutated.  The languages
step through each layer in stacks: their working copies walk as one stack
(:func:`lamedit.model.keys_and_targets_stack`), and their per-language
covariances, right-hand sides, memit systems, Cholesky checks, inverses and
condition numbers are stacked numpy calls, each slice through the kernel of its own
call on the same shapes, so every delta keeps the bits of a loop over the
languages.  A stack holds as many languages as keep its (h, h) systems
within :data:`lamedit.model.STACK_BYTES`: a dataset's 12 at h=64, one at a
time at h=256.

Everything ``edit_model`` shares with the unedited model comes in prepared
on it, once per run: the preserved term of every layer from
:func:`preserved_terms` (one walk of the preserved sample), and each
language's requests as a :class:`RequestPrefix` from :func:`request_prefix`.
In the shared covariance mode each layer's system (the same matrix for every
language) is factored and condition-checked once, then applied to each
language's right-hand side.

numpy and scipy bundle separate OpenBLAS builds whose thread pools stall each
other when calls alternate, so ``edit_model`` runs each edit layer in three
phases, with one switch into the solving library and one back:

1. numpy forms every distinct system at the layer with its 1-norm, and each
   language's right-hand side: forwards, matmuls and norms;
2. the method's library factors, condition-checks and solves them all back
   to back: numpy on its one thread (:mod:`lamedit.blas`) for memit, a
   layer's systems as one stack, and scipy at its default count for
   alphaedit, one system at a time on the main thread;
3. numpy stores each (d, h) delta array under its (layer, language) and
   updates the working copies.

alphaedit's phase 2, like its projector's ``eigh``, runs inside
:func:`lamedit.blas.scipy_run`, which stops scipy's idle workers after it so
they do not take the cores from numpy's next calls; that changes no bit.
These are the only scipy calls of ``run`` and ``sweep``.

memit systems stay in numpy throughout: a Cholesky check, one explicit
inverse per system, its exact 1-norm condition number and a matmul per
right-hand side.  alphaedit systems go through scipy's LU factor, ``dgecon``
and LU solve, whose bits the rank-deficient tsvm merges of its deltas are
sensitive to.  ``solve_memit`` keeps scipy's Cholesky solve, whose bits fix
the fitted backbone; the fit is set-up, which calls scipy outside the
handover.  Both ``solve_*`` functions build their system and right-hand side
with the same helpers as ``edit_model``.
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
        keys = cov_mod.preserved_keys(model, preserved_inputs, model.edit_layers)
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


@dataclass(frozen=True)
class RequestPrefix:
    """One language's requests prepared on the unedited model ``prefix.base``.

    Holds the requests' :class:`~lamedit.model.Prefix` and their targets at
    the first edit layer.  Every working copy in :func:`edit_model` starts
    from the prefix, and at the first edit layer each copy is still the base,
    so the keys there are ``prefix.key`` and the targets these.
    """

    requests: LanguageRequests
    prefix: model_core.Prefix
    targets: np.ndarray  # (d, n) at the base's first edit layer

    @property
    def language_id(self):
        return self.requests.language_id


def request_prefix(model, requests):
    """The :class:`RequestPrefix` of one language's requests on ``model``."""
    prefix = model_core.compute_prefix(model, requests.inputs)
    _, targets = model_core.keys_and_targets(model, prefix, requests.new_tokens, prefix.layer)
    return RequestPrefix(requests=requests, prefix=prefix, targets=targets)


def _layer_matrix(method, preserved_term, cov_request, request_count, lam):
    """The system of one solve at one layer and its 1-norm, or a stack's, before factoring."""
    if method == METHOD_MEMIT:
        # The per-sample preserved moment rescaled to the request batch size,
        # so lam weighs preservation against requests independently of how
        # many keys went into either statistic.
        return _memit_matrix(preserved_term * request_count, cov_request, lam)
    return _alphaedit_matrix(preserved_term.projector, cov_request, lam)


def _alphaedit_solve(system_t, norm, rhs, cond_limit):
    """Each right-hand side's (h, d) solve, back to back, in scipy.

    ``system_t`` is one system for every right-hand side, factored and
    checked once, or a stack of one per right-hand side, each factored,
    checked and solved in turn.
    """
    if system_t.ndim == 2:
        solve = _alphaedit_lu(system_t, norm, cond_limit)
        return [solve(b) for b in rhs]
    return [_alphaedit_lu(one, one_norm, cond_limit)(b) for one, one_norm, b in zip(system_t, norm, rhs)]


def edit_model(
    model,
    requests,
    preserved,
    lam,
    method=METHOD_MEMIT,
    cov_mode=PER_LANGUAGE,
    cond_limit=DEFAULT_COND_LIMIT,
):
    """One-step batch edit over all edit layers and languages.

    Per-language perturbations are computed against the original weights:
    each language gets its own working copy that accumulates only its own
    lower-layer edits, which is what makes the resulting per-language deltas
    independently mergeable.  The languages run in stacks, in language order:
    runs of consecutive languages of one request count (a dataset's all have
    one), each as long as keeps its (h, h) systems within
    :data:`lamedit.model.STACK_BYTES`.  At each layer after the first, a
    stack's working copies take their keys and targets from one stacked
    walk, run on from their requests' prefixes; at the first edit layer they
    are the prefixes' own.  In the shared covariance mode every language's
    system at a layer is the same matrix, so it is factored and
    condition-checked once per layer; in the per-language mode once per
    (layer, language), memit's as one stack whose first failing system, in
    language order, raises.  Each layer runs in three phases (see the module
    docstring): numpy forms the systems and right-hand sides, the method's
    library factors, checks and solves them back to back, and numpy stores
    the deltas and updates the working copies.  alphaedit's phase 2 runs
    inside :func:`lamedit.blas.scipy_run`.  Every delta has the bits of a
    loop that walks, factors and solves one language at a time.

    Parameters
    ----------
    requests : sequence of RequestPrefix
        One per language, from :func:`request_prefix` on ``model``; language
        ids must be unique.
    preserved : dict
        :func:`preserved_terms` of ``model`` for ``method``.
    lam : float
        For memit the preserved moment is normalized per sample and rescaled
        to the request batch size before weighting, so lam expresses the
        preservation-to-request ratio regardless of either sample count.
    cov_mode : "per_language" | "shared"
        Whether each language's request covariance is its own or the sum
        across all languages.

    Returns
    -------
    DeltaSet
    """
    if method not in METHODS:
        raise ShapeError(f"unknown method {method!r}")
    if cov_mode not in cov_mod.COV_MODES:
        raise ShapeError(f"unknown covariance mode {cov_mode!r}")
    prepared = sorted(requests, key=lambda prep: prep.language_id)
    if not prepared:
        raise ShapeError("edit_model needs at least one language batch")
    language_ids = tuple(prep.language_id for prep in prepared)
    if len(set(language_ids)) != len(language_ids):
        raise ShapeError(f"duplicate language ids in requests: {language_ids}")
    if any(prep.prefix.base is not model for prep in prepared):
        raise ShapeError("a RequestPrefix was computed on another model")

    # The languages walk and solve in stacks, in language order: runs of
    # consecutive languages of one request count, each as long as keeps its
    # (h, h) systems within STACK_BYTES (a dataset's 12 languages at h=64,
    # one at a time at h=256).
    width = max(1, model_core.STACK_BYTES // (8 * model.h * model.h))
    groups = []
    for i, prep in enumerate(prepared):
        if groups and len(groups[-1]) < width and prepared[groups[-1][0]].prefix.n == prep.prefix.n:
            groups[-1].append(i)
        else:
            groups.append([i])
    stacks = [
        (
            group,
            model_core.Prefix.stack(prepared[i].prefix for i in group),
            np.stack([prepared[i].requests.new_tokens for i in group]),
            np.stack([prepared[i].targets for i in group]),
        )
        for group in groups
    ]

    entries = {}
    working = [model] * len(prepared)
    for layer in model.edit_layers:
        term = preserved[layer]
        projector = term.projector if method == METHOD_ALPHAEDIT else None
        w_out = model.layer(layer).w_out  # every working copy's, until this layer's edit
        # Phase 1, numpy: each stack's keys and right-hand sides from one
        # walk, then this layer's one shared system or each stack's
        # per-language systems, with their 1-norms, and the right-hand sides
        # each solves.
        walked = [
            (prefix.key, targets)
            if layer == prefix.layer
            else model_core.keys_and_targets_stack([working[i] for i in group], prefix, tokens, layer)
            for group, prefix, tokens, targets in stacks
        ]
        rhs = [_rhs(projector, w_out, keys, targets) for keys, targets in walked]
        if cov_mode == SHARED:
            shared = cov_mod.cov_shared(language_keys for keys, _ in walked for language_keys in keys)
            count = sum(prep.prefix.n for prep in prepared)
            solves = [(*_layer_matrix(method, term, shared, count, lam), rhs)]
        else:
            solves = [
                (*_layer_matrix(method, term, cov_mod.cov_per_language(keys), keys.shape[-1], lam), [stack_rhs])
                for (keys, _), stack_rhs in zip(walked, rhs)
            ]
        # Phase 2, the method's library: alphaedit's run is scipy's.  Each
        # language's (h, d) solution, in language order.
        solved = []
        if method == METHOD_MEMIT:
            for system, norm, users in solves:
                inverse = _memit_inverse(system, norm, cond_limit)
                for stack_rhs in users:
                    solved.extend(inverse @ stack_rhs)
        else:
            with blas.scipy_run():
                for system, norm, users in solves:
                    solved.extend(_alphaedit_solve(system, norm, [b for stack_rhs in users for b in stack_rhs], cond_limit))
        # Phase 3, numpy: store the (d, h) deltas and move each working copy on.
        for i, (lang, solution) in enumerate(zip(language_ids, solved)):
            entries[(layer, lang)] = solution.T
            working[i] = working[i].with_w_out(layer, w_out + solution.T)

    return DeltaSet(
        cov_mode=cov_mode,
        layers=tuple(model.edit_layers),
        language_ids=language_ids,
        entries=entries,
    )
