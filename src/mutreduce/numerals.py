"""How a number is spelled in the text the program reads.

Every file and argument reader reads its numbers here, in one of two
spellings:

* a **count**: ASCII digits with no sign and no leading zero, as
  ``str()`` writes an int >= 0 (front seeds, chromosome genes, strategy
  and baseline counts, integer config values, the seed in a front
  file's name);
* a **real**: RFC 8259's number grammar, as a JSON file spells a number
  and as ``repr()`` writes every finite float (front times and scores,
  kill-matrix costs, config probabilities).

Neither takes a space, ``_``, ``+``, a non-ASCII digit, ``nan`` or
``inf``, and a real also needs a digit on each side of its ``.``.
Numbers inside JSON are read by ``json``; ``read_json`` gives the one
way that can fail on a number, an integer past ``int()``'s digit limit,
a message of its own. A message repeats at most ``SHOWN_CHARS``
characters of the text it refuses.

A leaf module: it imports nothing from the package.
"""

import json
import math
import re
import sys

COUNT = re.compile(r"0|[1-9][0-9]*")
REAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")

# Most characters of a refused text a message repeats.
SHOWN_CHARS = 40


def shown(text: str) -> str:
    """text as a message shows it: its repr, or past SHOWN_CHARS characters
    the repr of its first ones and its length."""
    if len(text) <= SHOWN_CHARS:
        return repr(text)
    return f"{text[:SHOWN_CHARS]!r}... ({len(text)} characters)"


def read_count(text: str, what: str, below: int | None = None) -> int:
    """The count ``text`` spells, if it is below ``below``; else ValueError
    naming ``what``. A count past int()'s digit limit is named by its
    number of digits."""
    if COUNT.fullmatch(text) is None:
        raise ValueError(f"bad {what} {shown(text)}")
    try:
        value = int(text)
    except ValueError:  # past int()'s digit limit
        raise ValueError(f"bad {what}: {len(text)} digits") from None
    if below is not None and value >= below:
        raise ValueError(f"{what} must be below {below}")
    return value


def read_real(text: str, what: str) -> float:
    """The finite float ``text`` spells; else ValueError naming ``what``."""
    if REAL.fullmatch(text) is None:
        raise ValueError(f"bad {what} {shown(text)}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} {shown(text)} is past the float range")
    return value


def read_json(text: str):
    """json.loads(text). Every way it fails is a ValueError saying why:
    text that is not JSON or is nested too deeply, and an integer past
    int()'s digit limit, whose own message points at an interpreter
    setting."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(str(exc)) from exc
    except ValueError:  # json's int() refused an integer's digits
        raise ValueError(f"an integer has more than {sys.get_int_max_str_digits()} "
                         f"digits") from None
