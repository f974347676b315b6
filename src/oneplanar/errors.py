"""Exception hierarchy shared by all modules."""


class OnePlanarError(Exception):
    """Base class for all library errors."""


# graph construction / lookup
class InvalidEdge(OnePlanarError):
    """Loop edge (v, v)."""


class DuplicateEdge(OnePlanarError):
    """Repeated unordered pair in `build_graph`'s edges; drawings keep parallel copies."""


class BadVertex(OnePlanarError):
    """Vertex id out of range."""


class EmptyGraph(OnePlanarError):
    """Operation needs at least one vertex."""


# drawings
class InvalidDrawing(OnePlanarError):
    """Drawing violates a structural invariant (see its report)."""


class NotBipartite(OnePlanarError):
    """Given partition is not a bipartition."""


class NotOnFace(OnePlanarError):
    """Requested corner does not lie on the face."""


class WouldCreateBigon(OnePlanarError):
    """Surgery would create a bigon face."""


class BadAttachment(OnePlanarError):
    """Vertex insertion needs distinct real corners."""


# generators
class TooSmall(OnePlanarError):
    """Size parameter below the family minimum."""


class BadParity(OnePlanarError):
    """Size parameter has the wrong parity."""


class TooManyCrossings(OnePlanarError):
    """More crossing pairs requested than available faces."""


# matcher
class TooLarge(OnePlanarError):
    """Graph exceeds the brute-force size limit."""


# bound checkers
class EmptyT(OnePlanarError):
    """Independent set T must be non-empty."""


class DegreeTooLow(OnePlanarError):
    """A vertex violates the minimum-degree precondition."""


class NotIndependent(OnePlanarError):
    """T contains an edge."""


class STooSmall(OnePlanarError):
    """Vertex set S below the required size."""


class NoProvenance(OnePlanarError):
    """1-planarity attestation (a drawing) missing."""


# text formats
class ParseError(OnePlanarError):
    """Malformed input file."""
