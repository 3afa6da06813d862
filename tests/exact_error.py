"""The error of an evolution run against its closed form, which only the
tests use.
"""
from __future__ import annotations

import numpy as np

from zmclab.closedform import ClosedFormSolution, evaluate_jet
from zmclab.evolution import EvolutionRun


def sup_error_against(run: EvolutionRun, sol: ClosedFormSolution) -> float:
    """Sup norm of u - exact over the surviving nodes at the final time."""
    final = run.final
    exact = evaluate_jet(sol, (final.t, final.xs)).value
    return float(np.max(np.abs(final.u - exact)))
