"""Exact p-adic arithmetic, Wach-module seeding, and congruence certificates
for trace deformations of two-dimensional crystalline data.

Everything is big-integer arithmetic with per-element precision caps; there
is no floating point anywhere.  The central workflow is

    seed_companion -> check_axioms -> deform_trace -> DeformCertificate

with the character-side utilities (psi_eval, TriCharacter, hypothesis_star,
weight_step, lipschitz_check) built on the same element types.
"""
from . import deform, errors, padics, series, trianguline, wach
from .deform import *
from .errors import *
from .padics import *
from .series import *
from .trianguline import *
from .wach import *

__version__ = "0.1.0"

__all__ = [
    *deform.__all__, *errors.__all__, *padics.__all__,
    *series.__all__, *trianguline.__all__, *wach.__all__,
]
