"""Conditional neural processes, plain and graph-convolutional, end to end:
GP episode generation, radius neighborhoods, a small autodiff kernel,
model assembly, training, and evaluation for 1-D function regression."""

from .autodiff import (
    BatchNormState,
    Parameter,
    Tensor,
    affine,
    backward,
    batch_norm,
    bounded_softplus,
    gaussian_nll,
    relu,
)
from .gp import (
    Episode,
    EpisodeBatch,
    EqKernelSpec,
    NotPositiveDefiniteError,
    ProtocolConfig,
    cholesky,
    eq_kernel,
    kernel_matrix,
    make_heldout_set,
    make_test_episode,
    make_test_set,
    make_train_batch,
    sample_function_values,
)
from .graph import ConvLayerParams, bipartite_conv, mean_pool, radius_mask
from .models import (
    GaussianPrediction,
    ModelConfig,
    ParameterStore,
    cnp_weights_from_cgnp,
    decode_targets,
    encode_context,
    forward,
    forward_tensors,
    init_params,
    pool_latent,
)
from .optim import AdamState, adam_step, zero_grads
from .training import (
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    TrainReport,
    batch_loss,
    compare_models,
    evaluate,
    loss_drop,
    prediction_metrics,
    train,
)

__version__ = "0.1.0"
