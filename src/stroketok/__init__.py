"""stroketok: discrete stroke tokens for vector graphics.

Parse SVG documents down to three basic commands, pack them into stroke
matrices, compress those through a residual-VQ convolutional codec into
token sequences, generate new sequences from keyword prompts with a toy
autoregressive model, repair decoded geometry, and score the results.
"""

__version__ = "0.1.0"

from .model import BasicCommand, Graphic, Path  # noqa: F401
from .svg_io import (  # noqa: F401
    dump_graphic,
    gen_synthetic,
    load_graphic,
    parse_svg,
    preprocess,
    simplify,
)
from .matrix_codec import StrokeMatrix, from_matrix, scale, to_matrix  # noqa: F401
from .artifacts import StrokeTokenSeq  # noqa: F401
from .vq_codec import (  # noqa: F401
    CodecConfig,
    Codebook,
    detokenize,
    quantize_residual,
    tokenize,
)
from .fixer import FixReport, check_connectivity, fix_pc, fix_pi  # noqa: F401
from .metrics import compression_ratio, edit_score, pixel_iou, recall_score  # noqa: F401
from .render import rasterize  # noqa: F401
