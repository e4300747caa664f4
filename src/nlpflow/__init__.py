"""Feasible-set descent-field methods for nonlinear programming."""

from .exprlang import Expr, evaluate, grad, parse, to_string
from .field import FieldBlock, FieldParams, dissipation, field_eval, projector_h
from .flow import Trajectory, euler_flow, phase_grid
from .kkt import KktReport, kkt_residual, multipliers
from .model import (Problem, ReducedProblem, is_feasible, jacobians, reduce,
                    residuals)
from .solver import (SolveConfig, SolveReport, active_index_set,
                     project_inexact, solve)

__all__ = [
    "Expr", "parse", "evaluate", "grad", "to_string",
    "Problem", "ReducedProblem", "residuals", "is_feasible", "jacobians",
    "reduce",
    "FieldParams", "FieldBlock", "projector_h", "field_eval",
    "dissipation",
    "KktReport", "multipliers", "kkt_residual",
    "Trajectory", "euler_flow", "phase_grid",
    "SolveConfig", "SolveReport", "active_index_set", "project_inexact",
    "solve",
]

__version__ = "0.1.0"
