"""Closed-form entropy terms and assembly of the four capacity lower bounds.

Every bound has the shape ``h(gamma) - penalties + credits`` where the
penalties are limiting conditional entropies of auxiliary sequences and the
credit reflects residual ambiguity in insertion positions given both channel
input and output.  Each ``lb_*`` declares the :class:`~.core.Role` of every
term it builds, and one function turns the roles into the bound and its
error budget.  The deleted-run term H(S | Y_prev, Y, T) has one kernel,
:func:`closed_form_delins_S`: its joint law is a handful of geometric
classes, summed exactly, so it carries no truncation error; the deletion
channel's H(S2 | Y1 Y2) is the same kernel at i = 0.  (The truncated direct
sums it replaced are kept in the tests as oracles.)  The one penalty summed
over unbounded run lengths, the run-length entropy H(L_X | L_out), is
:mod:`.run_length`'s, an upper bound at every gamma, with its
:class:`SeriesConfig`; this module re-exports its public names.

Every closed-form kernel the bounds use takes gamma as a float or as an
array: a float goes through ``math``, so a scalar bound keeps its bits, an
array through numpy, elementwise.  Each bound is declared once, in
``_BOUNDS``: its terms, listed in the order they are added
(``_deletion_terms`` and its siblings), and its ``lb_*``, which turns them
into :class:`~.core.EntropyTerm` records.  Its array form,
:class:`BoundGrid`, is built from the same entry and is all the gamma search
sees, its ceilings included.

The deletion bound also evaluates the two printed closed forms of its
penalties, the deleted-run-count entropy and the run-length entropy
(:func:`~.run_length.closed_form_HLXLY`), and reports each
computed-minus-printed residual as a diagnostic.  The literal
deleted-run-count formula disagrees with the law at d = 0 (it evaluates to
``gamma*log2(gamma)`` where the law gives 0), so the kernel above is
authoritative throughout and the literal form is exposed only for
side-by-side study: with ``use_printed_hs2``, the ``deletion_printed`` entry
of ``_BOUNDS``, it replaces the deleted-run penalty and is subtracted like
it, although it may be negative.

Test surface: :class:`BoundGrid`'s ``gammas``, ``chunks``, ``values`` and ``at``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (ChannelParams, EntropyTerm, Role, _check_gamma, _i_prime, _nonneg, _on_grid, _xlog2_path,
                   binary_entropy)
from .run_length import (SeriesConfig, _RunLawGrid, closed_form_HLXLY, run_law_deletion_H, run_law_delins_H,
                         run_law_duplication_H)

__all__ = [
    "SeriesConfig",
    "BoundResult",
    "markov_q",
    "stationary_iy",
    "h_I_limit",
    "h_T_limit",
    "insertion_penalty_credit",
    "delins_ambiguity_credit",
    "cond_entropy_S_given_YY",
    "closed_form_HS2",
    "run_law_deletion_H",
    "run_law_duplication_H",
    "run_law_delins_H",
    "closed_form_HLXLY",
    "delins_S_term",
    "closed_form_delins_S",
    "lb_deletion",
    "lb1_insertion",
    "lb2_insertion",
    "lb_delins",
    "BoundGrid",
]


@dataclass(frozen=True)
class BoundResult:
    """A capacity lower bound with its per-term breakdown.

    ``bound_bits`` is the sum of the terms' values, each signed by its role:
    the source entropy and credits add, penalties (printed ones included)
    subtract, and diagnostics are left out.  ``error_budget`` sums the
    truncation errors of the terms that enter the bound.
    """

    bound_bits: float
    gamma_star: float
    terms: tuple[EntropyTerm, ...]
    error_budget: float

    def reconstruct(self) -> float:
        return _signed_sum(self.terms)


def markov_q(gamma: float, d: float) -> float:
    """Same-symbol transition probability of the deletion-channel output."""
    return (gamma + d - 2.0 * gamma * d) / (1.0 + d - 2.0 * gamma * d)


def _theta(gamma: float, d: float) -> float:
    return (1.0 - gamma) * d / (1.0 - gamma * d)


def _beta(gamma: float, d: float) -> float:
    return (1.0 - gamma) * (1.0 - d) / (1.0 - gamma * d) ** 2


def _g0(gamma: float, d: float) -> float:
    """P(next output bit repeats, no run deleted in between) given the law."""
    return gamma * (1.0 - d) / (1.0 - gamma * d)


# ---------------------------------------------------------------------------
# insertion-channel closed forms
# ---------------------------------------------------------------------------

def stationary_iy(i: float, alpha: float, gamma: float) -> np.ndarray:
    """Stationary law of the (insertion-flag, output, previous-output) chain.

    Returns an array indexed ``[i_flag, y_now, y_prev]`` whose eight entries
    sum to one.  By 0/1 symmetry the entries depend only on the flag and on
    whether the two output bits agree.
    """
    ib, ab, gb = 1.0 - i, 1.0 - alpha, 1.0 - gamma
    z = 2.0 * (1.0 + i)
    pi = np.zeros((2, 2, 2))
    for y in (0, 1):
        pi[1, y, y] = i * alpha / z
        pi[1, 1 - y, y] = i * ab / z
        pi[0, y, y] = (ib * gamma + i * alpha * gamma + i * ab * gb) / z
        pi[0, 1 - y, y] = (ib * gb + i * alpha * gb + i * ab * gamma) / z
    return pi


def _weighted_h(weight: float, numerator: float) -> float:
    """weight * h(numerator / weight) with the degenerate cases (weight <= 0,
    where the numerator, a part of the weight, is 0 too) sent to 0."""
    if not isinstance(weight, np.ndarray):
        return weight * binary_entropy(numerator / weight) if weight > 0.0 else 0.0
    ok = weight > 0.0
    return np.where(ok, weight * binary_entropy(numerator / np.where(ok, weight, 1.0)), 0.0)


def h_I_limit(i: float, alpha: float, gamma: float) -> float:
    """Limiting per-output-symbol entropy of the all-insertions indicator."""
    ib, ab, gb = 1.0 - i, 1.0 - alpha, 1.0 - gamma
    same = _weighted_h(i * alpha + ib * gamma, i * alpha)
    diff = _weighted_h(i * ab + ib * gb, i * ab)
    return (same + diff) / (1.0 + i)


def h_T_limit(i: float, alpha: float, gamma: float) -> float:
    """Limiting per-output-symbol entropy of the complementary-insertion indicator."""
    ab = 1.0 - alpha
    w = 1.0 - gamma + gamma * i * ab
    return _weighted_h(w, i * ab) / (1.0 + i)


def insertion_penalty_credit(i: float, alpha: float, gamma: float) -> float:
    """Credit for insertion-position ambiguity that persists even given both
    the channel input and output (a complementary insertion at a run boundary
    is indistinguishable from a duplication of the next bit)."""
    ab = 1.0 - alpha
    w = ab + (1.0 - i) * alpha
    return (1.0 - gamma) ** 2 * i * _weighted_h(w, ab)


def delins_ambiguity_credit(d: float, i: float, alpha: float, gamma: float) -> float:
    """The combined channel's insertion-ambiguity credit: the insertion one at
    the first-stage output statistics (gamma -> q, i -> i' = i/(1-d)), per input bit."""
    return (1.0 - d) * insertion_penalty_credit(_i_prime(d, i), alpha, markov_q(gamma, d))


# ---------------------------------------------------------------------------
# deleted-run term H(S_j | Y_{j-1} Y_j T_j), and H(S2 | Y1 Y2) at i = 0
# ---------------------------------------------------------------------------

def closed_form_delins_S(gamma: float, d: float, i: float, alpha: float) -> float:
    """Limit of H(S_j | Y_{j-1}, Y_j, T_j) for the combined channel, summed in
    closed form from the stationary joint law of the cascade's second stage.

    With i' = i/(1-d), c1 = 1 - i'(1-alpha) and everything over 1 + i', the
    law of (S = k, T = 0) is, next to a repeated output bit,
    i' alpha + c1 g0 + i'(1-alpha) beta at k = 0, c1 beta theta**k at odd k
    and i'(1-alpha) beta theta**k at even k >= 2; next to a changed bit it is
    c1 beta + i'(1-alpha) g0 at k = 0, then i'(1-alpha) beta theta**k at odd
    and c1 beta theta**k at even k.  T = 1 fixes S = 0 and adds nothing.
    Each geometric class c theta**k, k = k0, k0 + 2, ..., contributes its mass
    times log2(w / c), w the context's weight; the k log2(1/theta) parts of
    all four classes add up to beta theta / (1 - theta)**2 log2(1/theta),
    because c1 + i'(1-alpha) = 1.  The logs of numerator and denominator are
    taken apart (:func:`~.core.xlog2`, on gamma's path), so a subnormal i'
    cannot overflow their ratio.
    """
    if d == 0.0:
        return 0.0 * gamma
    xlog2 = _xlog2_path(gamma)
    ip = _i_prime(d, i)
    ab = 1.0 - alpha
    c1 = 1.0 - ip * ab
    th, be, g0 = _theta(gamma, d), _beta(gamma, d), _g0(gamma, d)
    q = markov_q(gamma, d)
    qb = 1.0 - q
    omt2 = 1.0 - th ** 2

    n1 = ip * alpha + c1 * q + ip * ab * qb
    n2 = c1 * qb + ip * ab * q

    a1 = xlog2(th * be * c1 / omt2, n1, be * c1)
    a1 += xlog2(th ** 2 * be * ip * ab / omt2, n1, be * ip * ab)
    k0 = c1 * g0 + ip * ab * be + ip * alpha
    a1 += xlog2(k0, n1, k0)

    a2 = xlog2(th ** 2 * be * c1 / omt2, n2, be * c1)
    a2 += xlog2(th * be * ip * ab / omt2, n2, be * ip * ab)
    k0 = ip * ab * g0 + c1 * be
    a2 += xlog2(k0, n2, k0)

    third = xlog2(th * be / (1.0 - th) ** 2, 1.0, th)  # -th beta / (1-theta)**2 log2(theta)
    return (a1 + a2 + third) / (1.0 + ip)


def delins_S_term(gamma: float, d: float, i: float, alpha: float) -> EntropyTerm:
    """The deleted-run term of the combined and the deletion bound, of checked
    (d, i, alpha) and gamma: :func:`closed_form_delins_S`, exact, so with no truncation error.

    Vanishes at d = 0; at i = 0 alpha drops out and it is
    :func:`cond_entropy_S_given_YY`.
    """
    ChannelParams(d=d, i=i, alpha=alpha)
    _check_gamma(gamma)
    return EntropyTerm("deleted_run_count_entropy", _nonneg(closed_form_delins_S(gamma, d, i, alpha)), 0.0)


def cond_entropy_S_given_YY(gamma: float, d: float) -> EntropyTerm:
    """H(S2 | Y1 Y2) of the deletion channel: :func:`delins_S_term` at i = 0.
    Its printed closed form, :func:`closed_form_HS2`, disagrees at d = 0."""
    return delins_S_term(gamma, d, 0.0, 1.0)


def closed_form_HS2(gamma, d: float):
    """Literal printed closed form for H(S2 | Y1 Y2), of a float gamma or of
    an array, its logs taken apart (:func:`~.core.xlog2`, on gamma's path)
    so that a subnormal d cannot overflow 1 / theta (a
    diagnostic, and the printed-form penalty).  It falls short of the law's
    kernel (:func:`cond_entropy_S_given_YY`) by gamma (1 - theta) log2(1 / gamma)
    at every point tested, gamma log2(1 / gamma) at d = 0, where the law
    gives 0."""
    xlog2 = _xlog2_path(gamma)
    q = markov_q(gamma, d)
    th, be = _theta(gamma, d), _beta(gamma, d)
    tb = 1.0 - th
    out = xlog2(gamma * tb, q, tb)
    out += xlog2(be * th / tb ** 2, 1.0, th)
    out += xlog2(be * th / (1.0 - th ** 2), q, be)
    return out + xlog2(be / (1.0 - th ** 2), 1.0 - q, be)


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------

class _Term(NamedTuple):
    """An :class:`EntropyTerm`'s fields, its value a float or an array."""

    name: str
    value: object
    truncation_error: object = 0.0
    role: Role = Role.PENALTY


def _signed_sum(terms, bound=0.0) -> float:
    """``bound`` plus each term's value times its role's sign, added in
    order: the bound, from 0.  A penalty's value is subtracted, the same
    floating-point operation as adding its negation; a diagnostic is left out."""
    for t in terms:
        if t.role.sign > 0:
            bound = bound + t.value
        elif t.role.sign < 0:
            bound = bound - t.value
    return bound


def _assemble(gamma_star: float, terms: Sequence[_Term]) -> BoundResult:
    """The bound of ``terms`` at a float gamma, as :class:`EntropyTerm`
    records, with the truncation errors of the terms that enter it."""
    terms = tuple(EntropyTerm(*t) for t in terms)
    bound = _signed_sum(terms)
    budget = 0.0
    for t in terms:
        if t.role.sign:
            budget += t.truncation_error
    if not math.isfinite(bound):
        raise ValueError(f"bound is {bound} at gamma={gamma_star}: a term is not finite")
    return BoundResult(bound_bits=bound, gamma_star=gamma_star, terms=terms, error_budget=budget)


def _run_length_term(gamma, run, run_error=0.0) -> _Term:
    """(1 - gamma) H(L_X | L_out), the run-length penalty per input bit."""
    scale = 1.0 - gamma
    return _Term("run_length_penalty", scale * run, scale * run_error)


# The terms of each bound, in the order they are added, at gamma a float or
# an array, of the bound's own ChannelParams ``p``.  ``h`` is the source
# entropy h(gamma), which a grid keeps per array.  ``run`` is the
# run-length penalty (:func:`_run_length_term`): the one term whose scalar
# form, with its truncation error, and array form are computed apart.  A grid
# passes None for it and fills it in chunk by chunk (:class:`BoundGrid`).
# ``printed`` picks the deleted-run form of the ``deletion_printed`` entry.

def _deletion_terms(p: ChannelParams, gamma, h, run: _Term | None, printed: bool = False) -> list:
    d = p.d
    if printed:
        hs2 = _Term("deleted_runs_penalty_printed_form", (1.0 - d) * closed_form_HS2(gamma, d),
                    role=Role.PRINTED_PENALTY)
    else:
        hs2 = _Term("deleted_runs_penalty", (1.0 - d) * _nonneg(closed_form_delins_S(gamma, d, 0.0, 1.0)))
    return [_Term("source_entropy", h, role=Role.SOURCE), hs2, run]


def _lb1_terms(p: ChannelParams, gamma, h, run: None = None) -> list:
    i, alpha = p.i, p.alpha
    return [
        _Term("source_entropy", h, role=Role.SOURCE),
        _Term("insertion_positions_penalty", (1.0 + i) * h_I_limit(i, alpha, gamma)),
        _Term("insertion_ambiguity_credit", insertion_penalty_credit(i, alpha, gamma), role=Role.CREDIT),
    ]


def _lb2_terms(p: ChannelParams, gamma, h, run: _Term | None) -> list:
    i, alpha = p.i, p.alpha
    return [
        _Term("source_entropy", h, role=Role.SOURCE),
        _Term("comp_insertion_penalty", (1.0 + i) * h_T_limit(i, alpha, gamma)),
        run,
        _Term("insertion_ambiguity_credit", insertion_penalty_credit(i, alpha, gamma), role=Role.CREDIT),
    ]


def _delins_terms(p: ChannelParams, gamma, h, run: _Term | None) -> list:
    d, i, alpha = p.d, p.i, p.alpha
    scale = 1.0 - d + i  # output symbols per input bit
    return [
        _Term("source_entropy", h, role=Role.SOURCE),
        _Term("comp_insertion_penalty", scale * h_T_limit(_i_prime(d, i), alpha, markov_q(gamma, d))),
        _Term("deleted_runs_penalty", scale * _nonneg(closed_form_delins_S(gamma, d, i, alpha))),
        run,
        _Term("insertion_ambiguity_credit", delins_ambiguity_credit(d, i, alpha, gamma), role=Role.CREDIT),
    ]


def lb_deletion(d: float, gamma: float, cfg: SeriesConfig | None = None,
                diagnostics: bool = True, use_printed_hs2: bool = False) -> BoundResult:
    """Deletion-channel bound h(gamma) - (1-d) H(S2|Y1Y2) - (1-gamma) H(L_X|L_Y').

    ``use_printed_hs2`` swaps the deleted-run-count penalty for its literal
    printed closed form, which is subtracted in its place (a printed penalty,
    which may be negative), for side-by-side study of the suspected erratum.
    """
    p = ChannelParams(d=d)
    run = run_law_deletion_H(gamma, d, cfg)  # refuses a gamma out of range
    terms = _deletion_terms(p, gamma, binary_entropy(gamma), _run_length_term(gamma, run.value, run.truncation_error),
                            use_printed_hs2)
    if diagnostics:
        hs2 = cond_entropy_S_given_YY(gamma, d).value - closed_form_HS2(gamma, d)
        run_law = run.value - closed_form_HLXLY(gamma, d)
        terms += [_Term("hs2_series_minus_closed_residual", hs2, role=Role.DIAGNOSTIC),
                  _Term("run_law_series_minus_closed_residual", run_law, role=Role.DIAGNOSTIC)]
    return _assemble(gamma, terms)


def lb1_insertion(i: float, alpha: float, gamma: float) -> BoundResult:
    """Insertion bound decoding all insertion positions (LB 1)."""
    p = ChannelParams(i=i, alpha=alpha)
    _check_gamma(gamma)
    return _assemble(gamma, _lb1_terms(p, gamma, binary_entropy(gamma)))


def lb2_insertion(i: float, alpha: float, gamma: float, cfg: SeriesConfig | None = None) -> BoundResult:
    """Insertion bound decoding only complementary insertions (LB 2)."""
    p = ChannelParams(i=i, alpha=alpha)
    run = run_law_duplication_H(gamma, i, cfg)  # refuses a gamma out of range
    return _assemble(gamma, _lb2_terms(p, gamma, binary_entropy(gamma),
                                       _run_length_term(gamma, run.value, run.truncation_error)))


def lb_delins(d: float, i: float, alpha: float, gamma: float,
              cfg: SeriesConfig | None = None, diagnostics: bool = True) -> BoundResult:
    """Combined-channel bound assembled from the cascade representation.

    The complementary-insertion and ambiguity-credit terms are the insertion
    ones with the first-stage output statistics substituted (gamma -> q,
    i -> i' = i/(1-d)); the deleted-run term comes from the stationary
    second-stage law and the run-length term from the combined per-bit law.
    Reduces exactly to the deletion bound at i = 0 and to insertion LB 2 at
    d = 0.  ``diagnostics`` is taken as :func:`lb_deletion` takes it, but adds
    no term: the deleted-run term is its closed form, with no residual.
    """
    p = ChannelParams(d=d, i=i, alpha=alpha)
    run = run_law_delins_H(gamma, d, i, cfg)  # refuses a gamma out of range
    return _assemble(gamma, _delins_terms(p, gamma, binary_entropy(gamma),
                                          _run_length_term(gamma, run.value, run.truncation_error)))


class _Bound(NamedTuple):
    """A bound's terms and its ``lb_*``, both of the bound's own parameters."""

    terms: Callable[..., list]  # at (params, gamma, h, run)
    lb: Callable[..., BoundResult]  # at (params, gamma, cfg, diagnostics)


# bound name -> its terms and its lb_*, both of the bound's own ChannelParams
# (those of its channel's flags), whose (d, i) is its run-length law; the
# deletion bound's printed form (``use_printed_hs2``) is an entry of its own.
# The lambdas look each lb_* up by module-level name at call time, so a
# rebinding of those names (as a tracer does) is seen.
_BOUNDS = {
    "deletion": _Bound(_deletion_terms, lambda p, g, cfg, diag: lb_deletion(p.d, g, cfg, diag)),
    "deletion_printed": _Bound(lambda p, g, h, run: _deletion_terms(p, g, h, run, True),
                               lambda p, g, cfg, diag: lb_deletion(p.d, g, cfg, diag, use_printed_hs2=True)),
    "insertion_lb1": _Bound(_lb1_terms, lambda p, g, cfg, diag: lb1_insertion(p.i, p.alpha, g)),
    "insertion_lb2": _Bound(_lb2_terms, lambda p, g, cfg, diag: lb2_insertion(p.i, p.alpha, g, cfg)),
    "delins": _Bound(_delins_terms, lambda p, g, cfg, diag: lb_delins(p.d, p.i, p.alpha, g, cfg, diag)),
}


class BoundGrid:
    """The bound ``name`` of ``_BOUNDS`` at every gamma of a fixed 1-D
    array, the gamma search's one input, for the bound's own ``params`` and
    ``cfg``.

    It is the array form of the bound's ``lb_*``: the same terms added in the
    same order, with no validation, no diagnostics and no truncation errors,
    the closed-form ones taken once over the whole array and the run-length
    term, :class:`~.run_length._RunLawGrid`'s, in its ``chunks``; a bound
    without one (LB 1) is one chunk.  The values agree with the ``lb_*``
    within 1e-13 (tested), and :meth:`at` is its bound at a float gamma, bit
    for bit.

    What the gammas alone fix, the source entropy h(gamma) among it, is
    built once per array (:func:`~.core._on_grid`); the rest of the terms,
    the zero-row ceilings and each chunk's largest ceiling (one
    ``np.maximum.reduceat``), once per grid.

    Given a value to ``beat``, :meth:`values` and :meth:`at` return None when
    a ceiling, at least every value they would return bit for bit, is at most
    ``beat``; the table does not grow then.  There is one rule: the bound
    with a floor of the run-length entropy in its place, the zero-row floor,
    then, if rows are missing, the one from the rows held, whose chunk skips
    ``row_skips`` counts (both floors are :mod:`.run_length`'s).  The rest
    of the bound is the same floating-point operations on the same arrays,
    each monotone in that entropy whatever the signs of the other terms, so
    the bound on a floor is at least the bound.
    """

    def __init__(self, name: str, params: ChannelParams, gammas: np.ndarray, cfg: SeriesConfig) -> None:
        self._params, self._terms = params, _BOUNDS[name].terms
        terms = self._terms(params, gammas, _on_grid(binary_entropy, gammas), None)
        self._k = k = terms.index(None) if None in terms else len(terms)
        self._law = _RunLawGrid(gammas, params.d, params.i, cfg) if k < len(terms) else None
        self.gammas, self.row_skips, self._head, self._tail = gammas, 0, _signed_sum(terms[:k]), terms[k + 1:]
        self.chunks = self._law.chunks if self._law else (slice(0, gammas.size),)
        self._ceilings = self._assemble(slice(None), self._law.floor if self._law else None)
        starts = [chunk.start for chunk in self.chunks]
        self._tops = dict(zip(starts, np.maximum.reduceat(self._ceilings, starts).tolist()))

    def values(self, chunk: slice, beat: float = -math.inf) -> np.ndarray | None:
        """The bound at ``gammas[chunk]``, ``chunk`` one of ``chunks``, or None
        when a ceiling shows that no value there exceeds ``beat``; the chunk's
        one p_r matrix serves both the row-bounded ceiling and the values."""
        if self._tops[chunk.start] <= beat:
            return None
        if self._law is None:
            return self._ceilings[chunk]
        run = self._law.chunk(chunk)
        if (floor := run.floor()) is not None and self._assemble(chunk, floor).max() <= beat:
            self.row_skips += 1
            return None
        return self._assemble(chunk, run.values())

    def at(self, gamma: float, beat: float = -math.inf) -> float | None:
        """The bound at the float ``gamma``, the ``lb_*``'s own terms summed
        by the same :func:`_signed_sum`, so its ``bound_bits`` bit for bit;
        or None when a ceiling shows that it is at most ``beat``: first the
        bound with a run-length entropy of 0, which needs no run law, then
        the row-bounded one."""
        terms = self._terms(self._params, gamma, binary_entropy(gamma), None)
        if self._law is not None:
            k = self._k
            if beat > -math.inf:
                terms[k] = _run_length_term(gamma, 0.0)
                if _signed_sum(terms) <= beat:
                    return None
            run = self._law.at(gamma)
            if beat > -math.inf and (floor := run.floor()) is not None:
                terms[k] = _run_length_term(gamma, float(floor))
                if _signed_sum(terms) <= beat:
                    return None
            terms[k] = _run_length_term(gamma, float(run.values()))
        return _signed_sum(terms)

    def _assemble(self, chunk: slice, run) -> np.ndarray:
        """The terms at ``gammas[chunk]`` added in order, with ``run`` as
        H(L_X | L_out) if the bound has a run-length term."""
        terms = [] if run is None else [_run_length_term(self.gammas[chunk], run)]
        terms += [_Term(t.name, t.value[chunk], role=t.role) for t in self._tail]
        return _signed_sum(terms, self._head[chunk])
