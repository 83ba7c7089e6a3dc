"""Per-layer tracing by wrapping focktrace's public functions from outside.

Each wrapped name is patched where its caller looks it up (for example
``focktrace.cli.diagonal_spectrum`` and ``focktrace.spectral.scaled_moment_row``),
so nothing in the package changes.  A wrapped call opens a span; its self
time is its duration minus the time of the spans it encloses.  Spans are
aggregated per name (calls, busy time, self time) rather than kept one by
one, because some boundaries are crossed 10^5 to 10^6 times per experiment.
Busy time counts only the outermost call of a name, so recursion and
delegation between wrapped names of one layer are not double counted.

The tracer's own bookkeeping after each enclosed call is timed and kept out
of every span, so that  sum(self) + bookkeeping == duration of the root
spans  holds up to rounding, also when a wrapped call raises;
`Tracer.summary` asserts it.  The self time of the root spans is the time no
layer accounts for.  How the root spans compare with the whole process is
checked by the benchmark, which knows the process's wall time.
"""

from __future__ import annotations

import time

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.bookkeeping = 0.0
        self.root_s = 0.0
        self.root_self_s = 0.0
        # open spans: [name, start, time covered by enclosed spans]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._last_row: dict = {}

    # -- span accounting ---------------------------------------------------

    def _enter(self, name):
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = _now()
        return frame

    def _exit(self, frame, t_end):
        name, t_start, covered = frame
        self._stack.pop()
        dur = t_end - t_start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - covered
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy[name] = self.busy.get(name, 0.0) + dur
        if not self._stack:
            self.root_s += dur
            self.root_self_s += dur - covered

    def _close(self, frame, t_end):
        if self._stack:
            t_done = _now()
            self.bookkeeping += t_done - t_end
            self._stack[-1][2] += t_done - frame[1]

    def span(self, name, fn, on_result=None):
        """Wrap fn so that each call is one span of the given name."""
        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t_end = _now()
                self._exit(frame, t_end)
                self._close(frame, t_end)
                raise
            t_end = _now()
            self._exit(frame, t_end)
            if on_result is not None:
                on_result(args, result)
            self._close(frame, t_end)
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def hot(self, name, fn):
        """Wrap a function called 10^5 to 10^6 times: count and time only.

        It is a leaf span (it encloses no other wrapped call), so its whole
        duration is self time and is charged as covered time to its caller.
        """
        calls, busy = self.calls, self.busy
        calls.setdefault(name, 0)
        busy.setdefault(name, 0.0)
        stack = self._stack

        def wrapped(*args):
            t0 = _now()
            result = fn(*args)
            dt = _now() - t0
            calls[name] += 1
            busy[name] += dt
            if stack:
                stack[-1][2] += dt
            return result
        wrapped.__wrapped__ = fn
        return wrapped

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every layer boundary of focktrace named in BENCHMARK.json,
        for the rest of the process's life."""
        from focktrace import (_kernels, cli, core, dixmier, fock_matrices,
                               spectral)

        def wrap(owners, attr, name, on_result=None):
            fn = getattr(owners[0], attr)
            wrapper = self.span(name, fn, on_result)
            for owner in owners:
                setattr(owner, attr, wrapper)

        wrap([cli], "run_experiment", "cli.run_experiment")

        # fock_matrices
        wrap([spectral, fock_matrices], "scaled_moment_row",
             "fock_matrices.scaled_moment_row", self._on_row)
        wrap([cli, fock_matrices], "toeplitz_matrix", "fock_matrices.dense",
             self._on_dense)
        for attr in ("weyl_matrix", "buffered_product"):
            wrap([cli, fock_matrices], attr, "fock_matrices.dense")
        wrap([cli], "berezin", "fock_matrices.berezin")

        # _kernels
        wrap([_kernels], "ladder_row", "kernels.ladder_row",
             lambda a, r: self.count("kernels.ladder_row.steps", r.shape[0] - 1))
        wrap([_kernels], "pair_rows", "kernels.pair_rows",
             lambda a, r: self.count("kernels.pair_rows.steps", int(a[4])))
        wrap([_kernels], "raise_row", "kernels.raise_row",
             lambda a, r: self.count("kernels.raise_row.steps", r.shape[0]))
        wrap([_kernels], "partial_sums_at", "kernels.partial_sums_at",
             self._on_partial_sums)

        # core
        spectral.degree_multiplicity = self.hot("core.degree_multiplicity",
                                                spectral.degree_multiplicity)
        wrap([cli, core], "sphere_norm_sq", "core.sphere_norm_sq")

        # spectral
        wrap([cli, spectral], "diagonal_spectrum", "spectral.diagonal_spectrum",
             self._on_spectrum)
        seq = spectral.SNumberSequence
        wrap([seq], "partial_sums", "spectral.partial_sums")
        wrap([seq], "merge", "spectral.merge",
             lambda a, r: self.count("spectral.merge.values", r.values.shape[0]))
        wrap([seq], "scaled", "spectral.scaled")

        # dixmier
        wrap([cli, dixmier], "extrapolate", "dixmier.extrapolate")
        wrap([dixmier], "log_mean", "dixmier.log_mean")
        wrap([cli, dixmier], "pointwise", "dixmier.pointwise")

        # weyl_calculus
        wrap([cli], "star", "weyl_calculus.star")
        wrap([cli, fock_matrices], "heat_inverse", "weyl_calculus.heat")
        for attr in ("heat_transform", "heat_layers", "heat_quadrature",
                     "hankel_leading_symbol"):
            wrap([cli], attr, "weyl_calculus.heat")

        # symbolic route: sphere calculus, plus the rest of the target
        # computation (leading sphere parts and exact sphere integrals)
        for attr in ("tangential_bracket", "boundary_pairing",
                     "boundary_pairing_limit", "sphere_laplacian"):
            wrap([cli], attr, "sphere_calculus")
        wrap([cli], "_leading", "symbolic.leading")
        wrap([cli], "sphere_integral", "symbolic.sphere_integral")

    # -- counters at boundaries --------------------------------------------

    def _on_row(self, args, row):
        key = (float(args[0]), float(args[1]))
        if self._last_row.get(key) is row:
            self.count("fock_matrices.scaled_moment_row.hits", 1)
        else:
            self.count("fock_matrices.scaled_moment_row.entries", row.shape[0])
        self._last_row[key] = row

    def _on_dense(self, args, matrix):
        self.count("fock_matrices.dense.entries", matrix.size ** 2)

    def _on_partial_sums(self, args, out):
        values, mults, ranks = args
        if ranks.shape[0]:
            walked = np.searchsorted(np.cumsum(mults), ranks[-1], side="right") + 1
            self.count("kernels.partial_sums_at.runs_walked",
                       int(min(walked, values.shape[0])))

    def _on_spectrum(self, args, seq):
        self.count("spectral.diagonal_spectrum.values", seq.values.shape[0])
        self.count("spectral.diagonal_spectrum.ranks", seq.total)
        self.count("spectral.diagonal_spectrum.certified_rank",
                   seq.certified_rank or 0)

    # -- results -----------------------------------------------------------

    def attribution(self):
        """Sum of self times plus bookkeeping; equal to the root spans' duration."""
        total_self = sum(self.self_time.values()) + sum(
            self.busy[n] for n in self.busy if n not in self.self_time)
        gap = self.root_s - total_self - self.bookkeeping
        assert abs(gap) <= 1e-6 * self.root_s + 1e-6, gap
        return {"root_s": self.root_s, "self_sum_s": total_self,
                "bookkeeping_s": self.bookkeeping,
                "root_self_s": self.root_self_s}

    def summary(self):
        return {"calls": dict(self.calls), "busy": dict(self.busy),
                "self": dict(self.self_time), "counters": dict(self.counters),
                "attribution": self.attribution()}
