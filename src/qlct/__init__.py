"""Two-sided quaternion linear canonical transform (QLCT), its Gabor
windowed extension, and a numerical verification harness for the
associated inversion, Plancherel, and uncertainty-principle inequalities.
"""

from .lct1d import (Grid1D, LCTParams, MatchedSamplingError, ZeroBError,
                    conjugate_grid, kernel_value, lct_fast, lct_scale_chirp)
from .signal import (FormatError, Grid2D, GridMismatchError, QSignal2D,
                     WindowSpec, load, make_window, parse_window_spec, sample,
                     save, translate)
from .qlct2d import (QLCTParams, forward_grid, qlct_forward, qlct_forward_direct,
                     qlct_forward_fast, qlct_inverse, qlct_plancherel_check)
from .gabor import (GaborCoefficients, gabor_analyze, gabor_plancherel_check,
                    gabor_synthesize, load_coefficients, save_coefficients,
                    spectrogram, table_geometry, translation_grid)
from .report import InequalityReport, reports_to_csv, reports_to_json
from .uncertainty import (D_LOG, amgm_dilation_identity, concentration_check,
                          epsilon_concentration_check, gabor_field_stats,
                          greedy_minimal_mask, hausdorff_young_check,
                          heisenberg_check, lieb_check, lemma_log_identity_check,
                          log_check, mask_measure, moment_concentration_check,
                          random_mask, young_sup_check)

__version__ = "0.1.0"

__all__ = [
    "D_LOG", "FormatError", "GaborCoefficients", "Grid1D", "Grid2D",
    "GridMismatchError", "InequalityReport", "LCTParams",
    "MatchedSamplingError", "QLCTParams", "QSignal2D",
    "WindowSpec", "ZeroBError", "amgm_dilation_identity", "concentration_check",
    "conjugate_grid", "epsilon_concentration_check",
    "forward_grid", "gabor_analyze", "gabor_field_stats",
    "gabor_plancherel_check", "gabor_synthesize", "greedy_minimal_mask",
    "hausdorff_young_check", "heisenberg_check", "kernel_value", "lct_fast",
    "lct_scale_chirp", "lieb_check",
    "lemma_log_identity_check", "load", "load_coefficients", "log_check",
    "make_window", "mask_measure", "moment_concentration_check",
    "parse_window_spec", "qlct_forward", "qlct_forward_direct", "qlct_forward_fast",
    "qlct_inverse", "qlct_plancherel_check", "random_mask", "reports_to_csv",
    "reports_to_json", "sample", "save", "save_coefficients", "spectrogram",
    "table_geometry", "translate", "translation_grid", "young_sup_check",
]
