"""mixedsums: constructive witnesses for mixed sums of squares and
triangular numbers, with an independent brute-force oracle and a range
verification engine over the built-in form catalogs.

The package exports the library surface only; everything else is imported
from its submodule (``mixedsums.three_squares``, ``mixedsums.oracle``, ...),
and no exported name shadows a submodule.
"""

from .forms import Certificate, MixedForm, represent, verify
from .oracle import count, spec_of
from .survey import negative_control, verify_catalog, verify_theorem2_range

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "MixedForm",
    "count",
    "negative_control",
    "represent",
    "spec_of",
    "verify",
    "verify_catalog",
    "verify_theorem2_range",
    "__version__",
]
