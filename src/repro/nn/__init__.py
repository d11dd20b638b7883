"""Reference CNN inference engine.

A vectorized numpy implementation of every IR layer.  It plays the role
Caffe's CPU path plays in the original work: the functional oracle against
which the generated dataflow accelerator is validated, and the source of the
software baseline in the evaluation harness.
"""

from repro.nn.functional import (
    avg_pool2d,
    conv2d,
    fully_connected,
    im2col,
    log_softmax,
    max_pool2d,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.nn.engine import ReferenceEngine
from repro.nn.plan import (
    ExecutionPlan,
    PlanLedger,
    compile_plan,
    default_plan_cache,
)

__all__ = [
    "avg_pool2d",
    "conv2d",
    "fully_connected",
    "im2col",
    "log_softmax",
    "max_pool2d",
    "relu",
    "sigmoid",
    "softmax",
    "tanh",
    "ExecutionPlan",
    "PlanLedger",
    "ReferenceEngine",
    "compile_plan",
    "default_plan_cache",
]
