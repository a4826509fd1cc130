"""Multiplicity statistics of uniform random integer compositions.

Four routes to the same quantities, cross-validated against each other:
exhaustive enumeration (exact, small n), generating-function coefficients
(exact, large n), dominant-singularity leading terms (approximate, any n),
and a Mellin/residue limit law with a periodic fluctuation (asymptotic).
Each route's full interface lives in its module: ``compana.compositions``,
``compana.series``, ``compana.singularity`` and ``compana.asymptotics``.
"""

from compana.asymptotics import predict_event_probability
from compana.compositions import exact_event_probability, mc_event_probability
from compana.series import prob_multiplicity
from compana.singularity import prob_multiplicity_singularity

__version__ = "0.1.0"
