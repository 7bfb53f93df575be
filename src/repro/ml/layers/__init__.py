"""Neural-network layers (numpy, batch-vectorised)."""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "base": ("Layer", "ParamLayer"),
    "dense": ("Dense",),
    "conv": ("Conv2D",),
    "pool": ("MaxPool2D",),
    "flatten": ("Flatten",),
    "dropout": ("Dropout",),
    "batchnorm": ("BatchNorm",),
    "avgpool": ("AveragePool2D", "GlobalAveragePool2D"),
    "activations": ("ReLU", "Sigmoid", "Tanh", "Softmax"),
})

__all__ = [
    "Layer",
    "ParamLayer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AveragePool2D",
    "GlobalAveragePool2D",
    "Flatten",
    "Dropout",
    "BatchNorm",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
]
