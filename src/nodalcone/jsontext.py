"""The text of the CLI's JSON documents.

``json.dumps`` with ``indent`` set falls back to its pure-Python encoder;
``json_text`` writes the same bytes directly, its strings escaped by the
C function ``json`` itself uses. It is kept out of ``cli``, the largest
module: where no bytecode cache is written, every start compiles it,
and with this function inside, that compile left about 360 KB more heap
resident in each process that imports ``cli`` (Python 3.11).
"""

from json.encoder import encode_basestring_ascii


def json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the types a
    document holds, tested in ``json``'s order: str, None, True, False,
    int, list or tuple, and dict with str keys; anything else raises
    ``TypeError``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", [json_text(v, inner) for v in value]
    elif isinstance(value, dict) and all(isinstance(k, str) for k in value):
        brackets, items = "{}", [encode_basestring_ascii(k) + ": " + json_text(v, inner) for k, v in value.items()]
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON here")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]
