"""cbplab: sections, Fourier transforms of norm powers, and volume
comparisons for convex bodies invariant under blockwise rotations."""

from .bodies import (ComplexLqBall, ConvexityReport, EuclideanBall,
                     MollifiedBody, RadialPerturbation, ScaledBody, StarBody,
                     convexity_probe, mollify)
from .busemann_petty import (BpReport, ConstructionFailedError,
                             ConstructionImpossibleError, bp_construct,
                             bp_verify)
from .embedding import EmbeddingVerdict, embedding_interval, scan
from .fourier import (FtSample, UnsupportedRouteError, classical_multiplier,
                      ft_derivative_route, ft_multiplier_route, ft_values,
                      pairing_oracle, section_profile)
from .frames import ComplexFrame, DirectionGrid, make_frame, make_grid, perp
from .harmonics import HarmonicAtom, HarmonicBump, symmetric_harmonic_atoms
from .quadrature import (Estimate, PoisonedEstimateError, SphereRule,
                         fractional_radial, integrate_sphere, kahan_reduce,
                         sphere_area)
from .sections import (RootBracketError, laplacian_at_zero, parallel_section,
                       parallel_sections, section_volume, volume)
from .specs import SpecError, parse_body, parse_grid, parse_rule

__version__ = "0.1.0"
