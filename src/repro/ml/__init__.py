"""A minimal, vectorised deep-learning framework (the TensorFlow stand-in).

The paper trains small Keras/TensorFlow models inside each PyCOMPSs task.
TensorFlow is unavailable offline, so this subpackage provides the pieces
those experiments need, with a deliberately Keras-like surface:

* layers — :class:`~repro.ml.layers.Dense`, :class:`~repro.ml.layers.Conv2D`,
  :class:`~repro.ml.layers.MaxPool2D`, :class:`~repro.ml.layers.Flatten`,
  :class:`~repro.ml.layers.Dropout`, :class:`~repro.ml.layers.ReLU`, …
* optimisers — SGD, Adam, RMSprop (the paper's Listing 1 search space);
* :class:`~repro.ml.model.Sequential` with ``fit``/``evaluate``/``predict``
  and per-epoch history;
* callbacks including early stopping;
* deterministic synthetic datasets with MNIST-like and CIFAR-10-like
  difficulty profiles (:mod:`repro.ml.datasets`).

Everything is pure numpy and fully vectorised over the batch dimension
(no per-sample Python loops), following the HPC-Python guide idioms.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "model": ("Sequential", "History"),
    "losses": ("CategoricalCrossentropy", "MeanSquaredError", "get_loss"),
    "metrics": ("accuracy", "top_k_accuracy"),
    "callbacks": (
        "Callback", "EarlyStopping", "TargetMetricStopping", "LambdaCallback",
        "PreemptionCheckpoint",
    ),
    "optimizers": ("SGD", "Adam", "RMSprop", "get_optimizer"),
    "layers": (
        "Layer", "Dense", "Conv2D", "MaxPool2D", "AveragePool2D",
        "GlobalAveragePool2D", "Flatten", "Dropout", "BatchNorm", "ReLU",
        "Sigmoid", "Tanh", "Softmax",
    ),
    "schedules": (
        "LearningRateScheduler", "StepDecay", "ExponentialDecay", "CosineDecay",
    ),
    "serialization": ("save_weights", "load_weights"),
    "models_zoo": ("create_model",),
})

__all__ = [
    "Sequential",
    "History",
    "CategoricalCrossentropy",
    "MeanSquaredError",
    "get_loss",
    "accuracy",
    "top_k_accuracy",
    "Callback",
    "EarlyStopping",
    "TargetMetricStopping",
    "LambdaCallback",
    "PreemptionCheckpoint",
    "SGD",
    "Adam",
    "RMSprop",
    "get_optimizer",
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AveragePool2D",
    "GlobalAveragePool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "LearningRateScheduler",
    "StepDecay",
    "ExponentialDecay",
    "CosineDecay",
    "save_weights",
    "load_weights",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "create_model",
]
