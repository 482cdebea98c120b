"""Numeric constants of ``estimators.py``, the only module that imports them.

``DURFEE_MODE_COEFF`` is sqrt(6)*ln(2)/pi, the coefficient in the asymptotic
mode of the Durfee-square size of a uniform random partition.  The literal
below is the exact double nearest that value; derived constants are computed
from it so that identities such as ``INV_COEFF_SQ == INV_COEFF**2`` hold to
machine precision.
"""

from __future__ import annotations

DURFEE_MODE_COEFF = 0.5404446394667307

# Interval constructions use the reciprocal (approx. 1.85032828) and its
# square (approx. 3.42371473).
INV_COEFF = 1.0 / DURFEE_MODE_COEFF
INV_COEFF_SQ = INV_COEFF * INV_COEFF
