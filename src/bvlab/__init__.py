"""bvlab: desk-scale experiments on multiplicative functions in progressions."""

__version__ = "0.1.0"

from .core_arith import (  # noqa: F401
    PrimeTable,
    build_prime_table,
    euler_phi,
    factorize,
    load_prime_table,
    save_prime_table,
)
from .errors import (  # noqa: F401
    ClassViolationError,
    DomainError,
    InvariantViolationError,
    OutOfRangeError,
    ParameterError,
)
