"""focktrace: numerical and symbolic verification of trace asymptotics for
Toeplitz, Hankel and Weyl-type operators on Gaussian-weighted spaces of
entire functions."""

__version__ = "0.1.0"
