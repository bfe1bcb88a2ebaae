"""Type check of JSON values against dataclass field annotations, shared
by the training config and the scenario file."""

# annotation -> accepted types; an int is a valid float
_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def is_a(value, annotation):
    """Whether `value` fits a field annotated "str", "int", "float" or
    "bool", optionally "... | None". Bools are ints to isinstance, but
    fill only a bool field."""
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    return (isinstance(value, bool) == (kind == "bool")
            and isinstance(value, _TYPES[kind]))
