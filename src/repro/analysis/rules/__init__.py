"""Repo-specific lint rules.

Importing this package registers every built-in rule in
:data:`repro.analysis.rules.base.RULES`; the driver
(:mod:`repro.analysis.lint`) only has to import :data:`RULES`.
"""

from __future__ import annotations

from .base import RULES, Finding, LintRule, ModuleUnderLint, register
from .determinism import (
    NoSideChannelOutputRule,
    NoUnseededRandomRule,
    NoWallClockRule,
)
from .encapsulation import NoForeignPrivateMutationRule
from .exports import MandatoryAllRule
from .floats import NoFloatEqualityRule
from .pickling import NoSimStatePicklingRule

__all__ = [
    "RULES",
    "Finding",
    "LintRule",
    "ModuleUnderLint",
    "register",
    "NoWallClockRule",
    "NoUnseededRandomRule",
    "NoSideChannelOutputRule",
    "NoForeignPrivateMutationRule",
    "NoFloatEqualityRule",
    "MandatoryAllRule",
    "NoSimStatePicklingRule",
]
