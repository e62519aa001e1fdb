"""Call spans around qitekit's public functions, installed from outside.

The benchmark wraps each function named in ``WRAPPED`` in every ``qitekit``
module that holds the function object, so calls made through ``from .x
import f`` bindings are caught as well.  A name that no longer resolves
raises ``NameCheckError``; a function the program stops calling reports
0 calls instead of disappearing from the results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List

WRAPPED = {
    "cli": ("main",),
    "qite": ("qite_evolve",),
    "qlanczos": ("qlanczos_run", "build_matrices", "solve_gevp"),
    "qmetts": ("metts_chain", "block_error"),
    "analysis": (
        "spectral",
        "exact_ite",
        "exact_ite_energy",
        "gibbs_average",
        "mutual_information",
    ),
    "hamiltonians": ("energy", "to_dense"),
    "statevector": (
        "apply_term_exp",
        "apply_pauli_sum",
        "measure_collapse",
        "reduced_density_matrix",
        "product_state",
    ),
    "pauli": ("enumerate_pool",),
}
MODULES = tuple(WRAPPED)
FUNCTIONS = tuple(f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns)


class NameCheckError(RuntimeError):
    """A wrapped function no longer exists under its recorded name."""


def _sweep_length(n_terms: int, trotter_order: int) -> int:
    # first order visits each term once; second order is a symmetric
    # forward/backward pass that visits the middle term once
    return n_terms if trotter_order == 1 or n_terms == 1 else 2 * n_terms - 1


class Tracer:
    """Records one span per wrapped call: [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.qite_steps = 0
        self.pools = set()
        self.hamiltonians = set()
        self._hooks: Dict[str, Callable[[dict], None]] = {
            "qite.qite_evolve": self._on_qite_evolve,
            "pauli.enumerate_pool": self._on_enumerate_pool,
            "analysis.spectral": self._on_spectral,
        }

    def _on_qite_evolve(self, args: dict) -> None:
        config, hamiltonian = args["config"], args["hamiltonian"]
        sweep = _sweep_length(hamiltonian.n_terms, config.trotter_order)
        self.qite_steps += config.n_steps * sweep

    def _on_enumerate_pool(self, args: dict) -> None:
        pool = args["pool"]
        self.pools.add((pool.kind, tuple(pool.domain)))

    def _on_spectral(self, args: dict) -> None:
        h = args["hamiltonian"]
        self.hamiltonians.add((h.n_qubits, h.offset, h.terms))

    def install(self) -> None:
        """Replace every wrapped function in all loaded qitekit modules."""
        modules = {name: importlib.import_module(f"qitekit.{name}") for name in WRAPPED}
        holders = [
            m
            for name, m in list(sys.modules.items())
            if name == "qitekit" or name.startswith("qitekit.")
        ]
        for module_name, fns in WRAPPED.items():
            for fn in fns:
                original = getattr(modules[module_name], fn, None)
                if not callable(original):
                    raise NameCheckError(f"qitekit.{module_name}.{fn} no longer resolves")
                wrapper = self._wrap(f"{module_name}.{fn}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def _wrap(self, name: str, original: Callable) -> Callable:
        hook = self._hooks.get(name)
        signature = inspect.signature(original)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments)
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0]
            open_.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_.pop()

        return wrapper

    def summary(self) -> dict:
        """Per-function calls and inclusive seconds, per-module self seconds.

        ``errors`` lists every span that does not nest inside its parent or
        whose self time is negative; it is empty for a sound trace.
        """
        calls = dict.fromkeys(FUNCTIONS, 0)
        inclusive = dict.fromkeys(FUNCTIONS, 0.0)
        self_s = dict.fromkeys(MODULES, 0.0)
        children = [0.0] * len(self.spans)
        errors = []
        if self._open:
            errors.append(f"{len(self._open)} spans still open")
        for name, parent, start, end in self.spans:
            if parent >= 0:
                p_start, p_end = self.spans[parent][2:4]
                if not p_start <= start <= end <= p_end:
                    errors.append(f"{name} does not nest in {self.spans[parent][0]}")
                children[parent] += end - start
        for (name, _, start, end), child in zip(self.spans, children):
            own = (end - start) - child
            if own < 0:
                errors.append(f"{name} has negative self time {own:.3g} s")
            calls[name] += 1
            inclusive[name] += end - start
            self_s[name.split(".")[0]] += own
        return {
            "calls": calls,
            "s": inclusive,
            "self_s": self_s,
            "qite_steps": self.qite_steps,
            "distinct_pools": len(self.pools),
            "distinct_hamiltonians": len(self.hamiltonians),
            "errors": errors[:20],
        }
