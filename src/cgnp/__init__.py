"""Conditional neural processes, plain and graph-convolutional, end to end:
GP episode generation, radius neighborhoods, a small autodiff kernel,
model assembly, training, and evaluation for 1-D function regression."""

from .autodiff import (
    BatchNormState,
    Parameter,
    Tensor,
    affine,
    backward,
    block,
    gaussian_head,
    gaussian_nll,
)
from .gp import (
    EpisodeBatch,
    EqKernelSpec,
    NotPositiveDefiniteError,
    ProtocolConfig,
    bucket_episodes,
    cholesky,
    eq_kernel,
    kernel_matrix,
    make_heldout_set,
    make_test_episode,
    make_test_set,
    make_train_batch,
    sample_function_values,
)
from .graph import bipartite_conv, radius_neighborhood
from .models import (
    ModelConfig,
    ParameterStore,
    forward_tensors,
    init_params,
)
from .optim import AdamState, adam_step
from .training import (
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    batch_loss,
    compare_models,
    evaluate,
    loss_drop,
    train,
)

__version__ = "0.1.0"
