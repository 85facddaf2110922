"""The package namespace: ``raikit.__all__`` is built from the modules'
own ``__all__`` lists and must name exactly the public API."""

import raikit

PUBLIC = {
    "ALGORITHMS", "AgentStatus", "ArcBalanceReport", "AuditReport", "ClusterReport",
    "ConvergenceVerdict", "ConvexProjector", "Cut", "CutBalanceCertificate",
    "DelaySpec", "DisturbancePolicy", "HkConfig", "MatrixSequence",
    "ModulusConsensusVerdict", "MultiAgentProblem", "Paracontraction",
    "PersistentGraphEstimate", "ReciprocityReport", "RowStochasticMatrix",
    "SccDecomposition", "SiaVerdict", "SignedMatrixSequence", "SolveResult",
    "StabilityVerdict", "StructuralBalanceReport", "SubstochasticMatrix", "Trajectory",
    "UniformCutBalanceReport", "WeightedDigraph", "all_cuts", "arc_count",
    "check_arc_balance", "check_reciprocity", "check_sia", "check_uniform_cut_balance",
    "classify", "cut_balance_certificate", "cut_flow", "exp_product_bound",
    "flow_contraction_bound", "flow_contraction_bound_delayed", "gossip_sequence",
    "graph_from_edgelist", "graph_from_json", "graph_to_edgelist", "graph_to_json",
    "hk_weights", "is_aperiodic", "is_primitive", "modulus_consensus_verdict",
    "paracontraction_audit", "persistent_graph", "project",
    "recover_structural_balance", "run_altafini", "run_degroot", "run_delayed_rai",
    "run_hk", "run_rai", "schur_stability_by_reachability", "solve", "sorted_transform",
    "spectral_radius", "step", "stochastic_completion", "strong_components",
    "xiao_stack",
}


def test_all_names_exactly_the_public_api():
    assert sorted(raikit.__all__) == sorted(PUBLIC)
    for name in raikit.__all__:
        getattr(raikit, name)
