"""Majorization envelopes and certainty bounds for sets of quantum observables."""

from .majorization import (
    LorenzCurve,
    ProbVector,
    direct_sum,
    from_unsorted,
    is_majorized_by,
    join,
    join_all,
    lorenz,
    meet,
    meet_all,
    relative_entropy_term,
    shannon_entropy,
)
from .quantum import (
    DensityMatrix,
    ProjectiveObservable,
    bloch_to_density,
    born_probabilities,
    density_to_bloch,
    is_mub_pair,
    observable_from_basis,
    observable_from_bloch_axis,
    pauli_observable,
    random_density,
    standard_mub_set,
)
from .bounds import (
    BoundCertificate,
    ChoiceOperator,
    SolverConfig,
    StateConstraint,
    enumerate_choices,
    infimum_t,
    max_topn_over_states,
    min_topn_over_states,
    planar_triple_observables,
    qubit_mub_t,
    qubit_planar_triple_t,
    supremum_s,
    top_n_sum,
    two_basis_trivial_bound,
)
from .certainty import (
    CertaintyReport,
    certify_state,
    entropic_certainty_bound,
    state_direct_sum_pdv,
)
from .coherence import (
    CoherenceSampling,
    CoherenceVector,
    coherence_complementarity_bounds,
    coherence_vector_mixed_approx,
    coherence_vector_pure,
)

__version__ = "0.1.0"
