"""Exception types shared across the library.

Certification routines raise rather than return sentinel values: a failed
certificate names the first violated condition and carries enough data to
locate it (grid indices, levels, margins).
"""

from __future__ import annotations


class SpecfamError(Exception):
    """Base class for every error raised by this package."""


class NotHermitianError(SpecfamError, ValueError):
    """Input matrix deviates from its conjugate transpose beyond tolerance."""

    def __init__(self, deviation: float, tolerance: float, entry: tuple[int, int]):
        self.deviation = deviation
        self.tolerance = tolerance
        self.entry = entry
        super().__init__(
            f"matrix is not Hermitian: |A - A*| reaches {deviation:.6g} at entry "
            f"{entry}, allowed {tolerance:.6g}"
        )


class NonFiniteEntry(SpecfamError, ValueError):
    """A matrix entry is NaN or infinite, so no spectrum can be trusted."""

    def __init__(self, entry: tuple[int, int], value: complex,
                 grid_index: int | None = None):
        self.entry = entry
        self.value = value
        self.grid_index = grid_index
        where = f" at grid index {grid_index}" if grid_index is not None else ""
        super().__init__(f"matrix entry {entry} is not finite ({value}){where}")

    def at_grid_index(self, grid_index: int) -> "NonFiniteEntry":
        """The same error, naming the grid point whose matrix holds the entry."""
        return NonFiniteEntry(self.entry, self.value, grid_index)


class FamilyModelError(SpecfamError, ValueError):
    """Invalid family specification or a grid point where the model is singular."""


class ConfigError(SpecfamError, ValueError):
    """Analysis configuration rejected; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path} {message}" if path else message)


class CertificationError(SpecfamError):
    """Base for conditions that prevent a certificate from being issued."""


class EdgeOnSpectrum(CertificationError):
    """A window endpoint sits on (or too close to) the spectrum."""

    def __init__(self, endpoint: float, margin: float, grid_index: int | None = None):
        self.endpoint = endpoint
        self.margin = margin
        self.grid_index = grid_index
        where = f" at grid index {grid_index}" if grid_index is not None else ""
        super().__init__(
            f"window endpoint {endpoint:.6g} is within {margin:.3g} of the spectrum{where}"
        )


class RankJump(CertificationError):
    """The window rank changes between two adjacent grid points."""

    def __init__(self, left_index: int, right_index: int, left_rank: int, right_rank: int):
        self.left_index = left_index
        self.right_index = right_index
        self.left_rank = left_rank
        self.right_rank = right_rank
        super().__init__(
            f"window rank jumps from {left_rank} (grid index {left_index}) to "
            f"{right_rank} (grid index {right_index})"
        )


class ModulusExceeded(CertificationError):
    """A continuity modulus exceeds the caller-supplied cap.

    ``left_index`` is the left grid index of the first edge whose norm
    attains the modulus.
    """

    def __init__(self, which: str, modulus: float, cap: float, left_index: int):
        self.which = which
        self.modulus = modulus
        self.cap = cap
        self.left_index = left_index
        super().__init__(
            f"{which} modulus {modulus:.6g} exceeds cap {cap:.6g} "
            f"on edge ({left_index}, {left_index + 1})"
        )


class NoGap(CertificationError):
    """No admissible window level exists above ``b`` below the truncation ceiling.

    Usually means the truncation dimension is too small for the requested
    level; raising the dimension widens the trusted region.
    """

    def __init__(self, b: float, ceiling: float, x_index: int | None = None):
        self.b = b
        self.ceiling = ceiling
        self.x_index = x_index
        where = f" at grid index {x_index}" if x_index is not None else ""
        super().__init__(
            f"no admissible level in ({b:.6g}, {ceiling:.6g}]{where}; "
            "raise the truncation dimension to push the ceiling up"
        )


class EndpointOnSpectrum(CertificationError):
    """Zero is on the spectrum at a grid endpoint, so flow is undefined."""

    def __init__(self, grid_index: int, margin: float):
        self.grid_index = grid_index
        self.margin = margin
        super().__init__(
            f"eigenvalue within {margin:.3g} of 0 at grid endpoint {grid_index}"
        )


class AmbiguousMatching(CertificationError):
    """Adjacent spectra moved too much to match eigenvalue branches reliably."""

    def __init__(self, left_index: int, movement: float, bound: float):
        self.left_index = left_index
        self.movement = movement
        self.bound = bound
        super().__init__(
            f"branch movement {movement:.6g} between grid indices {left_index} and "
            f"{left_index + 1} exceeds the matching bound {bound:.6g}; refine the grid"
        )


class PartitionFailed(CertificationError):
    """Some grid edge admits no common window level (grid too coarse)."""

    def __init__(self, left_index: int):
        self.left_index = left_index
        super().__init__(
            f"no window level certifies the edge ({left_index}, {left_index + 1})"
        )


class BoundViolated(CertificationError):
    """A certificate inequality failed; the certificate is refused."""

    def __init__(self, which: str, value: float, bound: float):
        self.which = which
        self.value = value
        self.bound = bound
        super().__init__(f"{which} = {value:.6g} violates the required bound {bound:.6g}")


class StrictAdaptednessFailed(CertificationError):
    """No window level makes the upper spectral projections norm continuous."""

    def __init__(self, x_index: int, detail: str = ""):
        self.x_index = x_index
        msg = f"strict adaptedness fails around grid index {x_index}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


class CoveringFailed(CertificationError):
    """The shifted-window sweep could not cover the target interval."""


class PolarizationCheckFailed(CertificationError):
    """A fiber violates the compact-polarization hypotheses."""

    def __init__(self, grid_index: int, detail: str):
        self.grid_index = grid_index
        super().__init__(f"fiber at grid index {grid_index} is not compactly polarized: {detail}")
