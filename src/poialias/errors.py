"""Exception types shared across the toolkit."""


class PoiAliasError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(PoiAliasError):
    """An operation that requires at least one element received none."""


class ConflictingLabelError(PoiAliasError):
    """The same (district, standard, candidate) triple carries both label values."""


class GridMismatchError(PoiAliasError):
    """Two distributions do not share the same bounding box and grid size."""


class ZeroTotalError(PoiAliasError):
    """A density matrix with zero total count cannot be normalized."""


class AllPointsOutsideBboxError(PoiAliasError):
    """Every point of a profile fell outside the rasterization bounding box."""


class InvalidConfigError(PoiAliasError):
    """A configuration value violates its documented constraints."""


class TooFewDistrictsError(PoiAliasError):
    """Cross-validation needs at least two labeled districts."""


class NoPositiveLabelsError(PoiAliasError):
    """Threshold calibration needs at least one positive label among scored pairs."""
