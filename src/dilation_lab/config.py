"""Shared numeric defaults: tolerances, size caps, sampling constants."""

import os

# Residual tolerance for equality-style checks (Frobenius / max-abs).
TOL_NUM = 1e-9

# Eigenvalue floor for positivity checks: PSD means min eig >= -TOL_PSD.
TOL_PSD = 1e-10

# Residual tolerance for identities that hold exactly in exact arithmetic
# (symmetries squaring to the identity, orthogonality of a built unitary).
TOL_EXACT = 1e-12

# Relative cutoff for rank decisions (eigenvalue / singular value screens).
TOL_RANK = 1e-10

# Hard ceiling on any constructed Hilbert space dimension.
DIM_CAP = 4096

# Batched work (closure products, shift-check lifts) is cut into chunks of
# about this many bytes.
CHUNK_BYTES = 2 ** 26

# A chain whose largest planned array exceeds this many bytes is refused
# before anything is built.
BYTE_CAP = 2 ** 30

# Fermionic Fock space over rank r costs 2**r; keep r modest.
FERMION_RANK_CAP = 12

# q-deformed Gram sums iterate over S_n; factorial growth caps word length.
QWORD_LENGTH_CAP = 8

# Largest finite group the group-algebra builder accepts.
GROUP_ORDER_CAP = 24

# Modular flow is sampled at these times for intertwining checks.
T_SAMPLES = (0.3, 1.0)

# Fixed default seed so every sampling-based check is reproducible.
DEFAULT_SEED = 7041


def dim_cap() -> int:
    """Active dimension cap; DILATION_LAB_DIM_CAP overrides the default."""
    raw = os.environ.get("DILATION_LAB_DIM_CAP")
    if raw is None:
        return DIM_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"DILATION_LAB_DIM_CAP must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"DILATION_LAB_DIM_CAP must be positive, got {value}")
    return value
