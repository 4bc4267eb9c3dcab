"""P-SMILES parsing and polymer-graph analysis toolkit.

Core pieces: a P-SMILES parser/writer with repeat and translation
augmentation, star-linking graph construction with backbone detection,
color-refinement and twin-pair analysis, localized attention contexts,
deterministic forward-only reference network layers with finite-unroll
equivalence oracles, and a repeat/shift invariance test harness.
"""

import types as _types

from .errors import (
    BudgetExceeded,
    DisconnectedError,
    LexError,
    ParseError,
    PolyseqError,
)
from .graphs import (
    Atom,
    Bond,
    MolGraph,
    MonomerGraph,
    StarLinkGraph,
    auto_repeat_for_lga,
    detect_backbone,
    featurize,
    repeat_monomer,
    ring_stats,
    star_link,
    strategy_transform,
)
from .psmiles import canonical_form, parse, random_augment, write
from .wl import (
    ColoringResult,
    TwinPair,
    canonical_key,
    generate_twins,
    isomorphic,
    monomer_isomorphic,
    polymer_equal,
    primitive_reduce,
    wl_refine,
)
from .context import (
    AttentionContext,
    build_context,
    neighbour_table,
)
from .nets import (
    ReferenceModel,
    SpatialDescriptors,
    apply_backbone_embedding,
    cross_modal_fusion,
    forward_polymer,
    fragcam,
    gin_layer,
    layer_norm,
    local_attention_layer,
    project_spatial,
)
from .rsit import ModelPredictor, RsitReport
from .verify import lemma1_suite, theorem1_suite, theorem2_suite, twin_suite

__version__ = "0.1.0"

# the names imported above, not the submodules that their imports bind
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _types.ModuleType)]
