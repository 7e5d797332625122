"""Exact-arithmetic engine for approval-based committee elections."""

from .profiles import (
    Ballot,
    ChoiceSet,
    Committee,
    Profile,
    ProfileVector,
    add_profiles,
    apply_candidate_permutation,
    ballot_mask,
    canonical_form,
    enumerate_committees,
    format_profile,
    mask_ballot,
    parse_profile,
    profile_to_vector,
    scale_profile,
)
from .rules import (
    AbcScoringTable,
    BswavWeights,
    Rule,
    ThieleScore,
    committee_score,
    continuity_lambda_bound,
    named_rule,
    parse_rule_spec,
    winners,
    winners_from_vector,
)
from .axioms import (
    AxiomVerdict,
    check_anonymity,
    check_choice_set_convexity,
    check_consistency_pair,
    check_consistency_splits,
    check_independence_of_losers,
    check_neutrality,
    check_weak_efficiency,
    convex_hull,
    find_min_continuity_lambda,
    replay,
    verdict_to_json,
)
from .partylist import (
    PartyListStructure,
    check_aversion_unanimous,
    check_excellence,
    check_msav_threshold,
    check_party_proportionality,
    detect_party_structure,
    gen_excellence_witness_profile,
    gen_pav_witness_profile,
    gen_sav_witness_profile,
)
from .search import SearchBounds, enumerate_profiles, find_counterexample, separation_suite
from .identify import (
    Observation,
    build_system,
    fit_bswav,
    fit_thiele,
    parse_observations,
    solve_feasibility,
)

__version__ = "0.1.0"
