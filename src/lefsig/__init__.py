"""Exact signature computations for Lefschetz fibrations over the disk."""

from .cover import CorrectionTerm, cover_signature
from .engine import (
    SignatureTrace,
    StepRecord,
    local_sigma,
    local_sigma_via_maslov,
    shortcut_dual_preserved,
    signature,
)
from .errors import InputError, InternalConsistencyError, LefsigError
from .maslov import fiber_sum_defect, maslov_index, meyer_cocycle
from .positive import BLOCK_VECTORS, generate, signature_zero_certificate
from .ratlinalg import Matrix, signature_symmetric
from .symplectic import (
    Lagrangian,
    MonodromyWord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    direct_sum_lagrangian,
    is_symplectic,
    map_lagrangian,
    transvection,
    word,
    word_action,
)

__all__ = [
    "BLOCK_VECTORS",
    "CorrectionTerm",
    "InputError",
    "InternalConsistencyError",
    "Lagrangian",
    "LefsigError",
    "Matrix",
    "MonodromyWord",
    "SignatureTrace",
    "StepRecord",
    "Surface",
    "SymplecticSpace",
    "VanishingCycle",
    "cover_signature",
    "direct_sum_lagrangian",
    "fiber_sum_defect",
    "generate",
    "is_symplectic",
    "local_sigma",
    "local_sigma_via_maslov",
    "map_lagrangian",
    "maslov_index",
    "meyer_cocycle",
    "shortcut_dual_preserved",
    "signature",
    "signature_symmetric",
    "signature_zero_certificate",
    "transvection",
    "word",
    "word_action",
]
