"""contfrob: integrability diagnostics for continuous tangent distributions.

Numerical machinery around the question of when a merely continuous
rank-m distribution on a coordinate box is (uniquely) integrable:

* moduli       -- moduli of continuity (leaves, sums, multiples, maxima,
                  tabulated) and the divergence and limit uniqueness
                  criteria;
* mollify      -- bump-kernel smoothing of sampled data with verified
                  error/derivative bounds;
* fields/forms -- exact symbolic scalar fields and exterior calculus;
* geometry     -- graph-form distributions, annihilator frames,
                  involutivity defects and sup-norm trace functionals;
* surface      -- candidate integral surfaces by composed flows with
                  quantitative tangency and pushforward bounds;
* odelab/pdelab-- uniqueness certificates and funnel probes for rough
                  ODEs/PDEs, plus the separable closed-form solver;
* dynsys       -- dominated-splitting transport and decay traces on
                  torus maps;
* report       -- the one text format of every CSV report;
* cli          -- reproducible experiment runner with CSV reports.
"""

from .boxes import Box
from .fields import Field, parse_field
from .forms import KForm, exterior_derivative, one_form, wedge
from .geometry import (Distribution, FrameSection, annihilator_frame,
                       frobenius_defect, involutivity_constant)
from .moduli import (CriterionReport, Hoelder, Lipschitz, LogLip, Modulus,
                     Tabulated, estimate_modulus, limit_condition_check,
                     osgood_check)
from .mollify import GridFunction, kernel, mollify, verify_bounds
from .odelab import OdeSpec, extend, funnel, theorem1_check
from .pdelab import (PdeSpec, SpecialFormSpec, hat_matrix, special_solve,
                     theorem2_check)
from .surface import (FlowConfig, SurfacePatch, build_surface,
                      converge_surfaces, flow, pushforward_bound_check,
                      tangency_defect, variational_flow)
from .dynsys import (DiffeoSpec, domination_report,
                     splitting_involutivity_pipeline, transport)

__version__ = "0.1.0"
