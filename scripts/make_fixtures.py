"""Regenerate the shipped state-document fixtures.

Writes them into src/trigme/fixtures/ (package data), the only fixture
tree; ``fixture_documents`` returns the rendered text without writing
it.  The appendix_c and appendix_e_alt payloads are frozen
transcriptions of externally published matrices; regeneration keeps
their checksums stable.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trigme.states import (DensityMatrix, PureState, ghz_state,  # noqa: E402
                           partial_trace, w_state)
from trigme.stateio import render_state_document  # noqa: E402

# 4x4 blocks of the 16x16 appendix_c matrix; the grid index is the joint
# level of parties (1, 2), the inner index that of parties (3, 4).  Lower
# blocks are the conjugate transposes of the upper ones.
APPENDIX_C_BLOCKS = {
    (1, 1): [[0.0247608, 0.0279231, -0.0279231, 0.00748196],
             [0.0279231, 0.0314892, -0.0314892, 0.0084375],
             [-0.0279231, -0.0314892, 0.0314892, -0.0084375],
             [0.00748196, 0.0084375, -0.0084375, 0.00226082]],
    (1, 2): [[0.0330144, 0.0372308, -0.0372308, 0.00997595],
             [0.0372308, 0.0419856, -0.0419856, 0.01125],
             [-0.0372308, -0.0419856, 0.0419856, -0.01125],
             [0.00997595, 0.01125, -0.01125, 0.00301443]],
    (1, 3): [[0.042887, 0.0483642, -0.0483642, 0.0129591],
             [0.0483642, 0.0545409, -0.0545409, 0.0146142],
             [-0.0483642, -0.0545409, 0.0545409, -0.0146142],
             [0.0129591, 0.0146142, -0.0146142, 0.00391586]],
    (1, 4): [[0.0571827, 0.0644856, -0.0644856, 0.0172789],
             [0.0644856, 0.0727211, -0.0727211, 0.0194856],
             [-0.0644856, -0.0727211, 0.0727211, -0.0194856],
             [0.0172789, 0.0194856, -0.0194856, 0.00522114]],
    (2, 2): [[0.0440192, 0.049641, -0.049641, 0.0133013],
             [0.049641, 0.0559808, -0.0559808, 0.015],
             [-0.049641, -0.0559808, 0.0559808, -0.015],
             [0.0133013, 0.015, -0.015, 0.00401924]],
    (2, 3): [[0.0571827, 0.0644856, -0.0644856, 0.0172789],
             [0.0644856, 0.0727211, -0.0727211, 0.0194856],
             [-0.0644856, -0.0727211, 0.0727211, -0.0194856],
             [0.0172789, 0.0194856, -0.0194856, 0.00522114]],
    (2, 4): [[0.0762436, 0.0859808, -0.0859808, 0.0230385],
             [0.0859808, 0.0969615, -0.0969615, 0.0259808],
             [-0.0859808, -0.0969615, 0.0969615, -0.0259808],
             [0.0230385, 0.0259808, -0.0259808, 0.00696152]],
    (3, 3): [[0.0742825, 0.0837692, -0.0837692, 0.0224459],
             [0.0837692, 0.0944675, -0.0944675, 0.0253125],
             [-0.0837692, -0.0944675, 0.0944675, -0.0253125],
             [0.0224459, 0.0253125, -0.0253125, 0.00678246]],
    (3, 4): [[0.0990433, 0.111692, -0.111692, 0.0299279],
             [0.111692, 0.125957, -0.125957, 0.03375],
             [-0.111692, -0.125957, 0.125957, -0.03375],
             [0.0299279, 0.03375, -0.03375, 0.00904329]],
    (4, 4): [[0.132058, 0.148923, -0.148923, 0.0399038],
             [0.148923, 0.167942, -0.167942, 0.045],
             [-0.148923, -0.167942, 0.167942, -0.045],
             [0.0399038, 0.045, -0.045, 0.0120577]],
}

# An 8x8 matrix published with trace 4; scaled by 1/4 here (exact in
# binary floating point) so it parses as a density matrix.
APPENDIX_E_ALT_ROWS = [
    [0.15625, -0.241627, -0.133373, -0.09375,
     0.270633, -0.41851, -0.23101, -0.16238],
    [-0.241627, 0.560256, 0.15625, 0.00837341,
     -0.41851, 0.970392, 0.270633, 0.0145032],
    [-0.133373, 0.15625, 0.127244, 0.116627,
     -0.23101, 0.270633, 0.220392, 0.202003],
    [-0.09375, 0.00837341, 0.116627, 0.15625,
     -0.16238, 0.0145032, 0.202003, 0.270633],
    [0.270633, -0.41851, -0.23101, -0.16238,
     0.46875, -0.72488, -0.40012, -0.28125],
    [-0.41851, 0.970392, 0.270633, 0.0145032,
     -0.72488, 1.68077, 0.46875, 0.0251202],
    [-0.23101, 0.270633, 0.220392, 0.202003,
     -0.40012, 0.46875, 0.381731, 0.34988],
    [-0.16238, 0.0145032, 0.202003, 0.270633,
     -0.28125, 0.0251202, 0.34988, 0.46875],
]


def appendix_c_matrix() -> np.ndarray:
    rho = np.zeros((16, 16))
    for (i, j), blk in APPENDIX_C_BLOCKS.items():
        b = np.array(blk)
        rho[4 * (i - 1):4 * i, 4 * (j - 1):4 * j] = b
        if i != j:
            rho[4 * (j - 1):4 * j, 4 * (i - 1):4 * i] = b.T
    return rho


def appendix_e_matrix() -> np.ndarray:
    # Three-qubit marginal of the four-qubit W state: the rank-2 mixed
    # state with spectrum {3/4, 1/4}, all pairwise concurrences 1/2, and
    # a four-qubit W purification.
    w4 = w_state(4)
    return partial_trace(w4, (1, 2, 3)).entries.copy()


def fixture_documents() -> dict[str, str]:
    """File name -> rendered state document of every shipped fixture."""
    docs = {
        "ghz4.json": (PureState((2, 2, 2, 2), ghz_state(4).amplitudes),
                      {"label": "ghz4"}),
        "w4.json": (w_state(4), {"label": "w4"}),
        "appendix_c.json": (
            DensityMatrix((2, 2, 2, 2), appendix_c_matrix(), tol=1e-3),
            {"label": "appendix_c"}),
        "appendix_e.json": (
            DensityMatrix((2, 2, 2), appendix_e_matrix()),
            {"label": "appendix_e"}),
        "appendix_e_alt.json": (
            DensityMatrix((2, 2, 2), np.array(APPENDIX_E_ALT_ROWS) / 4.0,
                          tol=1e-3),
            {"label": "appendix_e_alt", "scaled_by": 0.25}),
    }
    return {name: render_state_document(state, meta)
            for name, (state, meta) in docs.items()}


def main() -> None:
    target = ROOT / "src" / "trigme" / "fixtures"
    target.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_documents().items():
        (target / name).write_text(text, encoding="utf-8")
        print(f"wrote {target / name}")


if __name__ == "__main__":
    main()
