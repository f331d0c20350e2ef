"""Exception types shared across the package."""


class CollectionError(Exception):
    """A service-description collection could not be read or validated."""


class SchemaError(CollectionError):
    """A collection document violates the canonical schema."""


class DuplicateIdError(CollectionError):
    """A service or operation id occurs more than once in a collection."""


class UnsupportedConstructError(CollectionError):
    """A description file uses a construct outside the supported subset."""

    def __init__(self, construct: str, path: str):
        super().__init__(f"unsupported construct {construct!r} in {path}")
        self.construct = construct
        self.path = path


class DegenerateAnalysisError(Exception):
    """A metric is undefined on the given network (empty, constant, no tail...)."""

    def __init__(self, metric: str, reason: str):
        super().__init__(f"{metric}: {reason}")
        self.metric = metric
        self.reason = reason

    def __reduce__(self):  # a stage's error crosses the helper's pipe pickled
        return type(self), (self.metric, self.reason)


class HelperProcessError(RuntimeError):
    """A forked helper process ended without handing back its stages' results."""
