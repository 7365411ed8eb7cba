"""Core term algebra: constructors, the subterm and interm relations,
theory descriptors, purity, and the xor normal form.

:data:`SIGNATURE` is the one place a constructor is declared: its text
name, signature side, arity and arguments.  Everything that dispatches on
the constructor (``children``, ``rebuild``, ``sort_key``, purity, the
renderer and parser, the combination's side tests) is derived from it, and
:func:`map_args` and :func:`decompose` are the one rewrite walker and the
one decomposition step the other modules use.

All values are immutable after construction and every operation is a pure
function, so terms can be shared freely across threads.  Normalization is
always explicit: constructors never flatten nested xors, never drop the
unity element and never cancel duplicate summands.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Iterator

_set = object.__setattr__  # a constructor's one way past a frozen __setattr__


class Record:
    """Base of the package's value classes: terms, problems, configurations
    and reports.

    A record's fields are its ``__slots__`` when it has them (the term
    constructors and :class:`Problem`, which write their own constructors),
    otherwise its annotations in order, with the class-level values as
    defaults; this base's constructor takes those fields by position or
    keyword and gives each instance its own copy of a list or dict default.
    Records of one class are equal when their fields are, a record's
    ``repr`` is ``Name(field=value, ...)`` and :meth:`replace` copies it
    with some fields changed.  A record is mutable and unhashable; a
    :class:`Frozen` one is neither.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _defaults: dict[str, object]
    _values: Callable[[Record], object]  # the field values, a bare one if single

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "__slots__" in own:
            cls._fields, cls._defaults = tuple(own["__slots__"]), {}
        else:
            cls._fields = tuple(cls.__annotations__)
            cls._defaults = {name: own[name] for name in cls._fields if name in own}
        cls._values = attrgetter(*cls._fields) if cls._fields else staticmethod(lambda r: ())

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name in values or name not in cls._fields:
                raise TypeError(f"{cls.__name__}() got a repeated or unknown argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name not in values:
                if name not in cls._defaults:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                value = cls._defaults[name]
                values[name] = value.copy() if isinstance(value, (list, dict)) else value
            _set(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes):
        """A copy of this record with the given fields changed."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, past a frozen __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Frozen(Record):
    """A record that cannot change after construction: it hashes on its
    fields, and assigning or deleting a field raises
    :class:`AttributeError`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Term(Frozen):
    """Base class for all term constructors.

    Each constructor writes its own ``__eq__`` and ``__hash__`` with the
    same meaning as the base's: the shared ones cost up to half again as
    much per node, and hashing and comparing terms is hot in the solvers'
    caches and the oracle's sets.
    """

    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class Const(Term):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name,) == (other.name,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name,))


class TagConst(Term):
    """Tag constant with a structured numeric path, rendered ``2.1``, ``3.3.1``.

    Tags behave like ordinary constants for unification (equal iff the paths
    are identical); the structured path lets the auto-tagger extend paths
    deterministically for nested xor terms.
    """

    __slots__ = ("path",)

    def __init__(self, path: tuple[int, ...]) -> None:
        _set(self, "path", path)
        if not path:
            raise ValueError("tag path must be nonempty")
        if any(part < 1 for part in path):
            raise ValueError("tag path components must be positive integers")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.path,) == (other.path,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.path,))


class Zero(Term):
    """The xor unity element.  A dedicated constructor, not a constant named
    ``0``, so unity checks cannot be spoofed by a user-defined constant."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())


ZERO = Zero()


class Seq(Term):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        _set(self, "items", items)
        if not items:
            raise ValueError("sequence must be nonempty")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.items,) == (other.items,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.items,))


class Penc(Term):
    """Public-key encryption of ``body`` under ``key``."""

    __slots__ = ("body", "key")

    def __init__(self, body: Term, key: Term) -> None:
        _set(self, "body", body)
        _set(self, "key", key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.body, self.key) == (other.body, other.key)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body, self.key))


class Senc(Term):
    """Symmetric encryption of ``body`` under ``key``."""

    __slots__ = ("body", "key")

    def __init__(self, body: Term, key: Term) -> None:
        _set(self, "body", body)
        _set(self, "key", key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.body, self.key) == (other.body, other.key)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.body, self.key))


class Pk(Term):
    __slots__ = ("agent",)

    def __init__(self, agent: Term) -> None:
        _set(self, "agent", agent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.agent,) == (other.agent,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.agent,))


class Sh(Term):
    __slots__ = ("a", "b")

    def __init__(self, a: Term, b: Term) -> None:
        _set(self, "a", a)
        _set(self, "b", b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))


class Xor(Term):
    """Variadic xor node.  Width is at least two at construction; nested xors
    stay nested until :func:`acun_normal_form` is applied explicitly."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        _set(self, "items", items)
        if len(items) < 2:
            raise ValueError("xor needs at least two summands")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.items,) == (other.items,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.items,))


STD = "std"
XOR = "xor"


def _no_args(t: Term) -> tuple[Term, ...]:
    return ()


class Signature(Frozen):
    """One constructor's entry in :data:`SIGNATURE`.

    ``op`` is the text name (None for atoms) and ``side`` the signature the
    constructor belongs to: :data:`STD`, :data:`XOR`, or None for variables,
    which belong to neither.  A compound constructor takes exactly ``arity``
    arguments, or, when ``variadic``, one ``items`` tuple of at least
    ``arity``; ``args`` reads them off a node in order.
    """

    op: str | None
    side: str | None
    arity: int = 0
    variadic: bool = False
    args: Callable[[Term], tuple[Term, ...]] = _no_args


# Key order is the fixed total order on constructors that sort_key uses.
SIGNATURE: dict[type, Signature] = {
    Zero: Signature(None, XOR),
    TagConst: Signature(None, STD),
    Const: Signature(None, STD),
    Var: Signature(None, None),
    Seq: Signature("seq", STD, 1, variadic=True, args=attrgetter("items")),
    Penc: Signature("penc", STD, 2, args=attrgetter("body", "key")),
    Senc: Signature("senc", STD, 2, args=attrgetter("body", "key")),
    Pk: Signature("pk", STD, 1, args=lambda t: (t.agent,)),
    Sh: Signature("sh", STD, 2, args=attrgetter("a", "b")),
    Xor: Signature("xor", XOR, 2, variadic=True, args=attrgetter("items")),
}

# lookups derived from the table for the hot paths
_ARGS = {cls: sig.args for cls, sig in SIGNATURE.items()}
_ORDER = {cls: rank for rank, cls in enumerate(SIGNATURE)}


class Theory(Enum):
    """Equality/unification regime selector.

    STD and FREE_XOR contain only identity equations, so equality is
    syntactic.  ACUN adds associativity, commutativity, unit and nilpotence
    for xor; COMBINED is the disjoint union STD + ACUN.
    """

    STD = "std"
    ACUN = "acun"
    FREE_XOR = "free-xor"
    COMBINED = "combined"

    @property
    def sides(self) -> tuple[str, ...]:
        """The signature sides whose operators belong to the theory."""
        if self is Theory.STD:
            return (STD,)
        if self is Theory.COMBINED:
            return (STD, XOR)
        return (XOR,)

    @property
    def syntactic(self) -> bool:
        """Whether equality is syntactic: STD and FREE_XOR hold only
        identity equations."""
        return self in (Theory.STD, Theory.FREE_XOR)


def side_of(t: Term) -> str | None:
    """Signature side of the head constructor: constants and tags belong to
    the standard theory, the unity element to the xor theory, variables to
    neither."""
    return SIGNATURE[type(t)].side


def is_atom(t: Term) -> bool:
    """True for variables, constants, tag constants and the unity element."""
    return SIGNATURE[type(t)].op is None


def children(t: Term) -> tuple[Term, ...]:
    return _ARGS[type(t)](t)


def rebuild(t: Term, items: tuple[Term, ...]) -> Term:
    """Rebuild a non-atomic term with new children (same constructor)."""
    cls = type(t)
    sig = SIGNATURE[cls]
    if sig.op is None:
        raise TypeError(f"cannot rebuild atom {t!r}")
    return cls(items) if sig.variadic else cls(*items)


def map_args(f: Callable[[Term], Term], t: Term) -> Term:
    """``t`` with ``f`` applied to each argument, or ``t`` itself when no
    argument changed (atoms always come back as they are).  A walker that
    calls this on itself rewrites a term bottom-up."""
    ch = _ARGS[type(t)](t)
    if not ch:
        return t
    new = tuple(f(c) for c in ch)
    return t if new == ch else rebuild(t, new)


def decompose(s: Term, t: Term) -> Iterator[tuple[Term, Term]] | None:
    """The argument pairs of two compound nodes with the same constructor
    and the same number of arguments; None otherwise, atoms included."""
    if type(s) is not type(t):
        return None
    cs, ct = _ARGS[type(s)](s), _ARGS[type(t)](t)
    if not cs or len(cs) != len(ct):
        return None
    return zip(cs, ct)


def iter_subterms(t: Term) -> Iterator[Term]:
    """All subterms of ``t`` in preorder, including ``t`` itself (with repeats)."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(reversed(_ARGS[type(u)](u)))


def is_subterm(t: Term, u: Term) -> bool:
    """Reflexive subterm relation: ``t`` occurs somewhere in ``u``'s tree."""
    return any(t == s for s in iter_subterms(u))


def subterms_of_set(terms: Iterable[Term]) -> set[Term]:
    """Closure of a set of terms under the subterm relation."""
    out: set[Term] = set()
    for t in terms:
        out.update(iter_subterms(t))
    return out


def interms(t: Term) -> set[Term]:
    """Direct xor summands of ``t``; a non-xor term is its own sole interm."""
    return set(interm_occurrences(t))


def interm_occurrences(t: Term) -> tuple[Term, ...]:
    """Like :func:`interms` but keeps duplicate occurrences and order."""
    if isinstance(t, Xor):
        return t.items
    return (t,)


def is_pure(t: Term, th: Theory) -> bool:
    """True iff every non-atomic subterm's head operator belongs to ``th``.

    Variables, constants, tags and the unity element are pure wrt every
    theory.
    """
    sides = th.sides
    return all(is_atom(u) or side_of(u) in sides for u in iter_subterms(t))


def vars_of(t: Term) -> frozenset[str]:
    return frozenset(u.name for u in iter_subterms(t) if isinstance(u, Var))


def const_names_of(t: Term) -> frozenset[str]:
    return frozenset(u.name for u in iter_subterms(t) if isinstance(u, Const))


def sort_key(t: Term):
    """Key for a fixed total syntactic order on terms.

    Constructor rank (the key order of :data:`SIGNATURE`) first, then
    lexicographic on the payload; any fixed total order would do,
    determinism is the requirement.
    """
    rank = _ORDER[type(t)]
    if isinstance(t, TagConst):
        return (rank, t.path)
    if isinstance(t, (Const, Var)):
        return (rank, t.name)
    if isinstance(t, Zero):
        return (rank,)
    return (rank, tuple(sort_key(c) for c in children(t)))


def xor_of(items: Iterable[Term]) -> Term:
    """Build an xor from 0, 1 or n summands (0 -> unity, 1 -> the summand)."""
    tup = tuple(items)
    if not tup:
        return ZERO
    if len(tup) == 1:
        return tup[0]
    return Xor(tup)


@lru_cache(maxsize=1 << 16)
def acun_normal_form(t: Term) -> Term:
    """Canonical representative modulo associativity, commutativity,
    ``x + 0 = x`` and ``x + x = 0``, applied recursively to all subterms.

    Nested xors are flattened, duplicate summands cancel pairwise, unity
    summands disappear, and the surviving summands are sorted by
    :func:`sort_key`.  An empty result collapses to the unity element and a
    singleton result to the bare summand.
    """
    if is_atom(t):
        return t
    if isinstance(t, Xor):
        flat = [u for c in t.items for u in interm_occurrences(acun_normal_form(c))]
        counts: Counter[Term] = Counter(u for u in flat if not isinstance(u, Zero))
        kept = sorted((u for u, k in counts.items() if k & 1), key=sort_key)
        return xor_of(kept)
    return map_args(acun_normal_form, t)


def summand_mask(nf: Term, bits: dict[Term, int]) -> int:
    """The set of a normal form's non-unity summands as a bitmask: the
    union of ``bits[u]`` over them, where a summand not yet in ``bits`` is
    given the next free bit.

    A normal form is fully determined by that set, so under one ``bits``
    two normal forms are equal exactly when their masks are, and the
    normal form of an xor of normal forms has the xor of their masks.
    """
    mask = 0
    for u in interm_occurrences(nf):
        if isinstance(u, Zero):
            continue
        bit = bits.get(u)
        if bit is None:
            bit = bits[u] = 1 << len(bits)
        mask |= bit
    return mask


def equal_mod(t1: Term, t2: Term, th: Theory) -> bool:
    """Equality modulo a theory: syntactic theories compare the terms,
    ACUN and COMBINED their xor normal forms."""
    if th.syntactic:
        return t1 == t2
    return acun_normal_form(t1) == acun_normal_form(t2)


def fresh_name(candidates: Iterable[str], taken: set[str]) -> str:
    """The first candidate not in ``taken``, which is added to ``taken``."""
    for name in candidates:
        if name not in taken:
            taken.add(name)
            return name
    raise ValueError("candidate names exhausted")


class Problem(Frozen):
    """A single unification problem: make ``lhs`` and ``rhs`` equal modulo
    whatever theory the caller is working in."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term) -> None:
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


def problem_vars(problems: Iterable[Problem]) -> frozenset[str]:
    out: set[str] = set()
    for p in problems:
        out |= vars_of(p.lhs) | vars_of(p.rhs)
    return frozenset(out)
