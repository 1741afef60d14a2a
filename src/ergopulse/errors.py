"""Exception types shared across the package.

``DomainError`` and its subclasses mark failures of a mathematical
precondition discovered numerically (the input parsed fine but the
requested quantity does not exist for it).  Plain ``ValueError`` is
reserved for malformed input.  The CLI maps the two families to
different exit codes.
"""

from __future__ import annotations


class DomainError(Exception):
    """A numerical-domain precondition failed for otherwise valid input."""


class ClusteringAmbiguityError(DomainError):
    """Eigenphases cannot be split into well-separated clusters."""

    def __init__(self, phases, cluster_tol: float):
        self.phases = list(phases)
        self.cluster_tol = float(cluster_tol)
        super().__init__(
            "ambiguous eigenphase clustering at tol=%.3g: chain %s has "
            "pairwise-close members but spans more than the tolerance"
            % (cluster_tol, ["%.12g" % p for p in self.phases])
        )


class NotACoboundaryError(DomainError):
    """The operator has a nonzero commutant component and is not of the
    form Y - u Y u*: ||P(X)|| = projection_norm exceeds tolerance times
    ||X|| = generator_norm, and the message states that ratio."""

    def __init__(
        self,
        projection_norm: float,
        generator_norm: float,
        tolerance: float,
        hint: str = "",
    ):
        self.projection_norm = float(projection_norm)
        self.generator_norm = float(generator_norm)
        msg = (
            "operator is not a coboundary: its commutant projection has "
            "op_norm %.6g; ||P(x)|| / ||x|| = %.6g exceeds the tolerance "
            "%.0e (||x|| = %.6g)"
            % (
                self.projection_norm,
                self.projection_norm / self.generator_norm,
                tolerance,
                self.generator_norm,
            )
        )
        if hint:
            msg += "; " + hint
        super().__init__(msg)


class InvalidDensityError(ValueError):
    """A schedule density is negative or not normalized on [0, 1]."""


class TooLargeInstanceError(ValueError):
    """A brute-force search was refused because the lattice would blow up."""

    def __init__(self, lattice_size: int, limit: int):
        self.lattice_size = int(lattice_size)
        self.limit = int(limit)
        super().__init__(
            "simplex lattice has %d points, above the %d-point limit; "
            "coarsen the resolution or reduce n" % (lattice_size, limit)
        )
