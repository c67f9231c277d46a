"""braidwalk: Markov-Ivanovsky normal forms on braid groups, free-group
boundary machinery, and seeded random-walk stabilization experiments."""

from .words import (BoundaryPoint, INFINITE, ParseError, ReducedWord,  # noqa: F401,E402
                    VerificationError, WingCore, concat, gromov, invert,
                    left_translate, parse_free, pow_infinity, power, prefix,
                    print_free, reduce, rho, wing_core)
from .braids import (BraidWord, PureWord, is_pure, parse_braid,  # noqa: F401,E402
                     perm, print_braid, sigma_to_pure, to_braid)
from .artin import (UNDEFINED, a_word, apply_braid, braid_equal,  # noqa: F401,E402
                    occurrence_ratio)
from .combing import (LengthGuardError, MIForm, MIStepper,  # noqa: F401,E402
                      central_element, flatten, mi_braid, mi_pure, parse_mi,
                      print_mi, rho_action)
from .boundary import (ContractionWitness, EmpiricalMeasure,  # noqa: F401,E402
                       ball_cover_check, contracting_family, find_large_wing,
                       is_eps_contracting, min_convolution_hit,
                       q_collection_witness)
from .walks import (GeneratorDistribution, Path, WalkConfig,  # noqa: F401,E402
                    sample_paths, uniform_s, uniform_sigma)
from .experiments import (StabilizationReport, artin_convergence_run,  # noqa: F401,E402
                          emit, selective_run, stabilization_run,
                          theorem2_run)

__version__ = "0.1.0"
