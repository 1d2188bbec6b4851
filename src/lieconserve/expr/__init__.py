"""Symbolic expression core: normalized sums of monomials, parsing,
differentiation, integration, evaluation."""

from .tree import (Atom, Const, Expr, ExprError, Func, Jet, JetDepthError,
                   Param, Pow, Sum, ONE, TWO, T, U, U_T, U_TT, U_X, U_XT,
                   U_XX, V, V_T, V_X, W, X, ZERO, add, as_expr, free_symbols,
                   from_terms, function_names, max_jet_order, mul, neg,
                   normalize, polynomial_terms, power, substitute, to_text,
                   walk)
from .functions import (DEFAULT_TABLE, FunctionDef, FunctionTable,
                        UnknownFunctionError, build_default_table)
from .derive import UnsupportedIntegrand, diff, integrate
from .parser import ExprSyntaxError, UnknownSymbolError, parse
from .evaluate import (EvaluationError, InconclusiveZeroTest, JetPoint, Poly,
                       SeedError, ZeroTestConfig, ZeroVerdict,
                       default_instantiations, evaluate, instantiate, is_zero,
                       polynomial_function, resolve_instantiations)

__all__ = [
    "Atom", "Const", "Expr", "ExprError", "Func", "Jet", "JetDepthError",
    "Param", "Pow", "Sum", "ONE", "TWO", "T", "U", "U_T", "U_TT", "U_X",
    "U_XT", "U_XX", "V", "V_T", "V_X", "W", "X", "ZERO", "add", "as_expr",
    "free_symbols", "from_terms", "function_names", "max_jet_order", "mul",
    "neg", "normalize", "polynomial_terms", "power", "substitute", "to_text",
    "walk", "DEFAULT_TABLE", "FunctionDef", "FunctionTable",
    "UnknownFunctionError", "build_default_table", "UnsupportedIntegrand",
    "diff", "integrate", "ExprSyntaxError", "UnknownSymbolError", "parse",
    "EvaluationError", "InconclusiveZeroTest", "JetPoint", "Poly",
    "SeedError", "ZeroTestConfig", "ZeroVerdict", "default_instantiations",
    "evaluate", "instantiate", "is_zero", "polynomial_function",
    "resolve_instantiations",
]
