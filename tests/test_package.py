import polyseq

# The package's public names: a name joins or leaves this set only on
# purpose.  The submodules that __init__ imports are not among them.
PUBLIC = {
    "Atom", "AttentionContext", "Bond", "BudgetExceeded", "ColoringResult",
    "DisconnectedError", "LexError", "ModelPredictor", "MolGraph",
    "MonomerGraph", "ParseError", "PolyseqError", "ReferenceModel",
    "RsitReport", "SpatialDescriptors", "StarLinkGraph", "TwinPair",
    "apply_backbone_embedding", "auto_repeat_for_lga", "build_context",
    "canonical_form", "canonical_key", "cross_modal_fusion",
    "detect_backbone", "featurize", "forward_polymer", "fragcam",
    "generate_twins", "gin_layer", "isomorphic", "layer_norm",
    "lemma1_suite", "local_attention_layer", "monomer_isomorphic",
    "neighbour_table", "parse", "polymer_equal", "primitive_reduce",
    "project_spatial", "random_augment", "repeat_monomer", "ring_stats",
    "star_link", "strategy_transform", "theorem1_suite", "theorem2_suite",
    "twin_suite", "wl_refine", "write",
}


def test_public_names_are_pinned():
    assert set(polyseq.__all__) == PUBLIC
