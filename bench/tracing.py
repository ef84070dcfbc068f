"""Per-layer tracing: self time and counts at the public functions of ktrg.

Each traced function is replaced, in every ktrg module that binds it, by a
wrapper that records its wall time minus the time of the traced calls it
makes (self time), its call count, and counts read from its arguments or
result.  Methods are wrapped on their class.  Recording happens only while
`active` is set, which the harness does around the timed program calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import sys
import time
from collections import defaultdict


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _configurations(n_max: int, side: int, parity=None) -> int:
    """Labeled configurations the oracle enumerates for particle numbers up to
    n_max: (2 side^2)^n per n, odd n skipped for the neutral-only sums."""
    return sum((2 * side * side) ** n for n in range(n_max + 1) if parity is None or n % 2 == parity)


def _count_points(rec, args, out):
    rec["points"] += int(getattr(args["u"], "size", 1))


def _count_steps(rec, args, out):
    rec["steps"] += out.horizon


def _count_iterations(rec, args, out):
    rec["iterations"] += out.iterations


def _count_bytes(rec, args, out):
    rec["bytes"] += os.path.getsize(args["path"])


def _count_grand(rec, args, out):
    rec["configurations"] += len(args["m_sequence"]) * _configurations(args["n_max"], args["lattice"].side)


def _count_neutral(rec, args, out):
    rec["configurations"] += _configurations(args["n_max"], args["lattice"].side, parity=0)


def _count_siegert_kac(rec, args, out):
    # configuration side and field side each enumerate every n <= n_max
    rec["configurations"] += 2 * _configurations(args["n_max"], args["lattice"].side)


# (module, attribute path, counter reading bound arguments and the result,
#  whether to split by the scale argument j and record the RSS high-water)
TARGETS = [
    ("cli", "main", None, False),
    ("cutoffs", "CutoffFamily.band_sum", _count_points, False),
    ("cutoffs", "CutoffFamily.u_profile", None, False),
    ("cutoffs", "coulomb_constant_c", None, False),
    ("cutoffs", "coulomb_constant_closed", None, False),
    ("decomposition", "decompose", None, False),
    ("decomposition", "band_window", None, False),
    ("decomposition", "CovarianceStack.psd_margins", None, False),
    ("decomposition", "CovarianceStack.telescoping_error", None, False),
    ("decomposition", "CovarianceStack.leakage", None, False),
    ("decomposition", "write_stack", _count_bytes, False),
    ("decomposition", "read_stack", None, False),
    ("coefficients", "compute_coefficients", None, False),
    ("coefficients", "coeff_a", None, True),
    ("coefficients", "coeff_b", None, True),
    ("coefficients", "energy_coeffs", None, True),
    ("lattice", "yukawa_table", None, False),
    ("lattice", "normalized_potential_table", None, False),
    ("flow", "trajectory", _count_steps, False),
    ("flow", "deviation_profile", None, False),
    ("manifold", "solve_fixed_point", _count_iterations, False),
    ("manifold", "apply_T", None, False),
    ("manifold", "solve_shooting", None, False),
    ("manifold", "empirical_contraction", None, False),
    ("polymers", "j_extraction_check", None, False),
    ("polymers", "count_S", None, False),
    ("polymers", "count_polyominoes", None, False),
    ("polymers", "connected_polymers_up_to", None, False),
    ("polymers", "reblock_inequality", None, False),
    ("polymers", "k_small", None, False),
    ("oracle", "grand_Z", _count_grand, False),
    ("oracle", "neutral_Z", _count_neutral, False),
    ("oracle", "siegert_kac_check", _count_siegert_kac, False),
    ("regulators", "log_field_regulator", None, False),
    ("regulators", "log_strong_regulator", None, False),
]


class Tracer:
    """Self-time and count records keyed `<module>.<function>`."""

    def __init__(self):
        self.active = False
        self.records: dict[str, defaultdict] = {}
        self._child_time: list[float] = []

    def wrap(self, key: str, fn, counter=None, per_scale: bool = False):
        rec = self.records.setdefault(key, defaultdict(float))
        sig = inspect.signature(fn) if counter or per_scale else None
        stack = self._child_time

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                own = dt - stack.pop()
                if stack:
                    stack[-1] += dt
                rec["s"] += own
                rec["calls"] += 1
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter:
                    counter(rec, bound.arguments, out)
                if per_scale:
                    rec[f"j{bound.arguments['j']}.s"] += own
                    rec["rss_mb"] = max(rec["rss_mb"], _rss_mb())
            return out

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every target wherever a ktrg module (or class) binds it."""
        for mod_name, _, _, _ in TARGETS:
            importlib.import_module(f"ktrg.{mod_name}")
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("ktrg.") and m is not None]
        for mod_name, path, counter, per_scale in TARGETS:
            home = sys.modules[f"ktrg.{mod_name}"]
            key = f"{mod_name}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(key, fn, counter, per_scale))
                continue
            fn = getattr(home, path)
            traced = self.wrap(key, fn, counter, per_scale)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, name, traced)
        return self

    def self_time(self) -> float:
        """Summed self time of all traced calls."""
        return sum(rec["s"] for rec in self.records.values())

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values `<module>.<function>.<quantity>`; rss_mb is the
        high-water mark, not divided."""
        out = {}
        for key, rec in self.records.items():
            for q, v in rec.items():
                out[f"{key}.{q}"] = v if q == "rss_mb" else v / passes
        return out
