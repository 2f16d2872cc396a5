"""Bit-exact simulator and synthesis cost models for a streaming
linear-SVM FPGA accelerator.

The package exports every name its modules list in __all__."""

from .accel import *
from .driver import *
from .errors import *
from .model_io import *
from .synth import *

__version__ = "0.1.0"
