"""Exception hierarchy shared by all hypercurv modules."""


class HypercurvError(Exception):
    """Base class for every error raised by this package."""


# -- hypergraph construction / parsing --------------------------------------

class EmptyInput(HypercurvError):
    pass


class LoopFound(HypercurvError):
    pass


class DuplicateHyperedge(HypercurvError):
    pass


class NotSimple(HypercurvError):
    pass


class NotConnected(HypercurvError):
    pass


class UnknownVertex(HypercurvError):
    pass


class BadParams(HypercurvError):
    pass


# -- measures ----------------------------------------------------------------

class AlphaOutOfRange(HypercurvError):
    pass


class SupportOutsideVertexSet(HypercurvError):
    pass


class SupportOutsideEdge(HypercurvError):
    pass


# -- concave cost ------------------------------------------------------------

class LambdaOutOfRange(HypercurvError):
    pass


class NotConcave(HypercurvError):
    pass


class InfiniteDerivativeAtZero(HypercurvError):
    pass


# -- transport plans ---------------------------------------------------------

class StepLeavesHyperedge(HypercurvError):
    pass


class NegativeIntermediateMass(HypercurvError):
    pass


class EndpointMismatch(HypercurvError):
    pass


class NotAssociated(HypercurvError):
    pass


# -- curvature ---------------------------------------------------------------

class SameVertex(HypercurvError):
    pass


class OutOfCatalogRange(HypercurvError):
    pass


# -- diameter / vertex bounds ------------------------------------------------

class PairTooClose(HypercurvError):
    pass


class NonpositiveKappa(HypercurvError):
    pass


class Hp1ZeroWarning(UserWarning):
    """The diameter bound is vacuous because h'(1) = 0."""
