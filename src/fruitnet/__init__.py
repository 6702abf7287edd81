"""Framework-free fruit-image classification pipeline.

Dataset preparation (flood-fill background removal, rescaling), preprocessing
scenarios, a from-scratch convolutional network with Adam training and an
accuracy-driven learning-rate rule, evaluation with per-class mislabel
accounting, and single-image prediction.
"""

from .augmentation import Scenario
from .errors import (
    ConfigurationError,
    FormatError,
    FruitnetError,
    InvalidInputError,
    ShapeError,
    TrainingDivergedError,
)
from .evaluation import EvalReport, Prediction, evaluate, predict_image
from .imaging import (
    FloodFillParams,
    RasterImage,
    flood_fill_background,
    read_ppm,
    remove_background,
    resize_bilinear,
    write_ppm,
)
from .network import NetworkConfig, init_params, preset_configuration
from .records import (
    ExampleRecord,
    LabelMap,
    ShardSet,
    build_shards,
    find_shards,
    read_examples,
)
from .synthetic import generate_corpus
from .training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
