"""Span tracing of sftkit's layers from outside the program.

`Tracer.install()` replaces the public functions of each sftkit module, in
every sftkit namespace that holds them, by wrappers that record a span
(name, start, end, parent) and work counts computed from the call's input
and output sizes with the code's own budget formulas. `uninstall()` puts
the originals back. The program's source is not touched and its results
are unchanged; only the clock and the counters are added.

Each span may also carry `claims`: (block shape, count) pairs that the
layer established, so a task's printed counts can be compared with what
its layers computed.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time

import sftkit
from sftkit import cli, chain, levels, matrices, normalize, oracle, specio
from sftkit.errors import BudgetError

_CAP_WORDS = (
    ("candidate cubes", "max_cubes"),
    ("index would have", "max_index"),
    ("would hold", "max_blocks"),
    ("brute force", "oracle_candidates"),
    ("profile DP", "profile_states"),
    ("", "max_work"),
)


def cap_name(err: BudgetError) -> str:
    """The cap a BudgetError reports, read from its message."""
    text = str(err)
    return next(cap for words, cap in _CAP_WORDS if words in text)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> Span:
        sp = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def close(self, sp: Span, err: BaseException | None = None) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if isinstance(err, BudgetError):
            sp.attrs["budget"] = (cap_name(err), err.required)
        elif err is not None:
            sp.attrs["error"] = type(err).__name__

    def call(self, name, fn, args, kwargs, after=None, before=None):
        """Run fn(*args, **kwargs) inside a span named `name`; `before`
        fills attributes from the arguments, `after` from the result."""
        sp = self.open(name)
        try:
            if before is not None:
                before(sp.attrs, *args, **kwargs)
            out = fn(*args, **kwargs)
        except BaseException as e:
            self.close(sp, e)
            raise
        if after is not None:
            after(sp.attrs, out, *args, **kwargs)
        self.close(sp)
        return out

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module, fname, wrapper in self._wrappers():
            orig = getattr(module, fname)
            for ns in [m for n, m in sys.modules.items() if n == "sftkit" or n.startswith("sftkit.")]:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._saved.append((ns, attr, val))
                        setattr(ns, attr, functools.wraps(orig)(wrapper(orig)))

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._saved):
            setattr(ns, attr, val)
        self._saved.clear()

    def _simple(self, name, after=None, before=None):
        def make(orig):
            def wrapped(*args, **kwargs):
                return self.call(name, orig, args, kwargs, after, before)

            return wrapped

        return make

    def _wrappers(self):
        sw = self._simple
        out = [(cli, "main", sw("cli.main"))]
        for cmd in ("analyze", "count", "compare", "sample", "witness", "export", "import"):
            out.append((cli, f"_cmd_{cmd}", sw(f"cli.{cmd}")))
        out += [
            (specio, "load_spec_file", sw("specio.parse")),
            (specio, "parse_spec", sw("specio.parse")),
            (specio, "save_state", sw("specio.save", after=_archive_bytes)),
            (specio, "load_state", sw("specio.load", after=_loaded)),
            (specio, "render_block", sw("specio.render")),
            (normalize, "normalize_to_cubes", sw("normalize", after=_normalized)),
            (normalize, "enumerate_allowed_cubes", sw("normalize", after=_enumerated)),
            (levels, "analyze", sw("levels.analyze")),
            (levels, "level0_state", sw("levels.base", after=_base, before=_base_pre)),
            (levels, "with_relations", self._with_relations),
            (levels, "reduced_step", sw("levels.step", after=_step)),
            (levels, "witness_search", sw("levels.witness", after=_witness)),
            (chain, "run_chain", sw("chain.run")),
            (chain, "chain_report", sw("chain.run")),
            (chain, "chain_relation", self._chain_relation),
            (chain, "d_chain_step", sw("chain.step", after=_chain_step)),
            (matrices, "level0_matrices", sw("matrices.base", after=_mbase)),
            (matrices, "step_literal", sw("matrices.step", after=_mstep, before=_mstep_pre)),
            (oracle, "brute_force_allowed", sw("oracle.brute", after=_brute)),
            (oracle, "profile_count", sw("oracle.dp", after=_dp, before=_dp_pre)),
        ]
        return out

    def _with_relations(self, orig):
        # split into the vertical pass (need_hrel=False) and the horizontal
        # pass over the vertical result; the program computes exactly this
        # when handed a state whose vrel is already filled in
        def wrapped(state, caps=sftkit.DEFAULT_CAPS, need_hrel=True):
            if state.level == 0 or (state.vrel is not None and (state.hrel is not None or not need_hrel)):
                return orig(state, caps, need_hrel)
            side = state.side
            if state.vrel is None:
                n = len(state.squares)

                def vpre(attrs, *a, **k):
                    attrs["checks"] = n * n if n * n <= caps.max_work else 0

                def vpost(attrs, out, *a, **k):
                    attrs["out"] = len(out.vrel)
                    attrs["claims"] = [((2 * side, side), len(out.vrel))]

                state = self.call("levels.vrel", orig, (state, caps, False), {}, vpost, vpre)
            if not need_hrel:
                return state
            v = len(state.vrel)

            def hpre(attrs, *a, **k):
                attrs["checks"] = v * v if v * v <= caps.max_work else 0

            def hpost(attrs, out, *a, **k):
                attrs["out"] = len(out.hrel)
                attrs["claims"] = [((2 * side, 2 * side), len(out.hrel))]

            return self.call("levels.hrel", orig, (state, caps, True), {}, hpost, hpre)

        return wrapped

    def _chain_relation(self, orig):
        def wrapped(state, cubes, caps=sftkit.DEFAULT_CAPS):
            if state.relation is not None:
                return orig(state, cubes, caps)
            name = "chain.scan" if state.next_stage()[0] == 1 else "chain.join"
            n = len(state.blocks)

            def pre(attrs, *a, **k):
                attrs["checks"] = n * n if n * n <= caps.max_work else 0

            def post(attrs, out, *a, **k):
                attrs["out"] = len(out.relation)
                if out.blocks:
                    attrs["claims"] = [(_doubled(out.blocks[0].shape, out.next_axis()), len(out.relation))]

            return self.call(name, orig, (state, cubes, caps), {}, post, pre)

        return wrapped


def _doubled(shape, axis):
    return shape[:axis] + (2 * shape[axis],) + shape[axis + 1 :]


def _archive_bytes(attrs, out, result, path):
    attrs["bytes"] = os.path.getsize(path)


def _loaded(attrs, result, *a, **k):
    claims = []
    for st in result.levels:
        s = st.side
        claims.append(((s, s), len(st.squares)))
        if st.vrel is not None:
            claims.append(((2 * s, s), len(st.vrel)))
        if st.hrel is not None:
            claims.append(((2 * s, 2 * s), len(st.hrel)))
    attrs["claims"] = claims


def _normalized(attrs, cubes, spec, *a, **k):
    attrs["candidates"] = spec.alphabet_size ** (cubes.side**spec.dimension)


def _enumerated(attrs, index, spec, cubes, *a, **k):
    attrs["candidates"] = spec.alphabet_size ** (cubes.side**spec.dimension)
    attrs["allowed"] = len(index)
    attrs["claims"] = [((cubes.side,) * spec.dimension, len(index))]


def _base_pre(attrs, allowed_cubes, cubes, caps=sftkit.DEFAULT_CAPS):
    k = len(allowed_cubes)
    attrs["checks"] = k * k if k * k <= caps.max_work else 0
    attrs["out"] = 0


def _base(attrs, st, allowed_cubes, cubes, *a, **k):
    s = st.side
    v, h = len(st.vrel), len(st.hrel)
    attrs["checks"] += v * v
    attrs["out"] = v + h
    attrs["claims"] = [((s, s), len(st.squares)), ((2 * s, s), v), ((2 * s, 2 * s), h)]


def _step(attrs, st, *a, **k):
    attrs["squares"] = len(st.squares)
    attrs["claims"] = [((st.side, st.side), len(st.squares))]


def _witness(attrs, res, *a, **k):
    attrs["nodes"] = res.nodes


def _chain_step(attrs, st, *a, **k):
    attrs["blocks"] = len(st.blocks)
    if st.blocks:
        attrs["claims"] = [(st.blocks[0].shape, len(st.blocks))]


def _mbase(attrs, lit, *a, **k):
    s = lit.side
    v, h = lit.vert.ones_count(), lit.horiz.ones_count()
    attrs["ones"] = v + h
    attrs["claims"] = [((2 * s, s), v), ((2 * s, 2 * s), h)]


def _mstep_pre(attrs, lvl, *a, **k):
    k4 = len(lvl.letters) ** 4
    attrs["index"] = k4
    # allowed 2x2 arrangements among the k^4 that the step builds
    attrs["allowed"] = len(lvl.pair_ones)
    attrs["ones"] = 0


def _mstep(attrs, lit, lvl, *a, **k):
    s = lit.side
    v = lit.vert.ones_count()
    attrs["ones"] = v
    attrs["claims"] = [((2 * s, s), v)]
    if lit.horiz is not None:
        attrs["ones"] += lit.horiz.ones_count()
        attrs["claims"].append(((2 * s, 2 * s), lit.horiz.ones_count()))


def _brute(attrs, res, spec, shape, *a, **k):
    # candidates enumerated; a call refused by its cap enumerates none
    attrs["candidates"] = spec.alphabet_size ** math.prod(shape)
    attrs["claims"] = [(tuple(shape), res.count)]


def _dp_pre(attrs, spec, shape, *a, **k):
    r, s = shape
    side = normalize.forbidden_side(spec)
    ka = spec.alphabet_size
    # profile_count's state bound k^(s(l-1)), each state trying k^s rows
    states = ka ** (s * (side - 1)) if r >= side and s >= side else 0
    attrs["states"] = states
    attrs["row_checks"] = states * ka**s


def _dp(attrs, count, spec, shape, *a, **k):
    attrs["claims"] = [(tuple(shape), count)]

