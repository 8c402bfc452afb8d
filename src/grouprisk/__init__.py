"""Exact group-wise risks and verified bounds for two-group Gaussian mixture classifiers."""

__version__ = "0.1.0"

from . import bounds, estimators, harness, model, primitives, risk
from .bounds import *
from .estimators import *
from .harness import *
from .model import *
from .primitives import *
from .risk import *

__all__ = ["__version__", *bounds.__all__, *estimators.__all__, *harness.__all__, *model.__all__,
           *primitives.__all__, *risk.__all__]
