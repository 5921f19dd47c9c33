"""Exact character combinatorics for simple root systems.

Computes and verifies tilting-module character identities: Weyl and orbit
characters, Steinberg characters, simple-character resolution, and the
decomposition of Steinberg tensor products into indecomposable tilting
characters.  All arithmetic is exact integer arithmetic.
"""

from .rootsys import (
    RootSystemSpec,
    RootDatum,
    build_root_datum,
    datum,
    pairing,
    weyl_orbit,
    to_dominant,
)
from .charring import (
    FormalCharacter,
    char_add,
    char_mul,
    frobenius_twist,
    orbit_sum,
    weyl_character,
    s_r_character,
    expand_in_orbit_sums,
    expand_in_weyl_chars,
    from_weyl_chars,
    expand_in_sr,
    brauer_klimyk,
    divide_exact,
)
from .minuscule import (
    MinusculeProfile,
    classify,
    is_restricted,
    p_digits,
    is_minuscule,
    is_p_minuscule,
    is_pr_minuscule,
    is_r_minuscule,
    enumerate_class,
    lemma2_check,
)
from .simplechar import (
    SimpleCharProvider,
    SimpleCharTable,
    jantzen_sum,
    jsf_solve,
)
from .tilting import (
    Decomposition,
    TiltingCharProvider,
    steinberg_character,
    tilting_char_p,
    tilting_char_pr,
    tilting_chi_pr,
    decompose_st_tensor,
    decompose_str_tensor,
    remark_check,
    verify_remark,
    verify_lemma1a,
    verify_prop2_corollary,
    verify_lemma1b_character,
    good_filtration_consistent,
)

__all__ = [name for name in dir() if not name.startswith("_")]
