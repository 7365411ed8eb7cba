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

    A record's fields are its ``__slots__`` when it has them, otherwise its
    annotations in order, with the class-level values as defaults.  A slot
    named with a leading underscore is not a field: it stores a value the
    constructor derives from the fields, and ``repr``, :meth:`replace`,
    copying and pickling never show it.  Each class gets its own
    constructor, which takes the fields by position or keyword and gives
    each instance its own copy of a list or dict default, and its own
    ``==``, true for records of one class whose fields are equal; a
    :class:`Frozen` class also gets its own hash, the hash of its fields'
    tuple.  A class with a ``_hash`` slot (:class:`Term`, :class:`Problem`)
    stores that hash at construction, built from its fields' own stored
    hashes without a walk, and its ``==`` is false at once when the stored
    hashes differ.  They are written per class from its fields, because
    shared generic ones cost up to half again as much per node, and hashing
    and comparing terms is hot in the solvers' caches and the oracle's sets.
    A class that writes one of these methods itself keeps it.  A record's
    ``repr`` is ``Name(field=value, ...)`` and :meth:`replace` copies it
    with some fields changed.  A record is mutable and unhashable; a
    :class:`Frozen` one is neither.
    """

    __slots__ = ()
    __hash__ = None  # a mutable record is unhashable; each Frozen class gets its own
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "__slots__" in own:
            cls._fields = tuple(name for name in own["__slots__"] if not name.startswith("_"))
            defaults = {}
        else:
            cls._fields = tuple(cls.__annotations__)
            defaults = {name: own[name] for name in cls._fields if name in own}
        if not hasattr(cls, "_sides"):  # a term's methods wait for its SIGNATURE entry
            _install(cls, defaults)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes):
        """A copy of this record with the given fields changed."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, past a frozen
        # __setattr__, so a stored hash is computed afresh in the process
        # that unpickles
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _install(cls: type, defaults: dict, sides: str | None = None) -> None:
    """Compile ``cls``'s constructor, ``==`` and, when frozen, hash from its
    fields and set those it does not write itself.  ``sides`` is the source
    of a term's side mask over the constructor's parameters."""
    params, body = ["self"], []
    for name in cls._fields:
        value = name
        if name not in defaults:
            params.append(name)
        else:
            params.append(f"{name}=_defaults[{name!r}]")
            if isinstance(defaults[name], (list, dict)):  # each instance its own copy
                value = f"{name}.copy() if {name} is _defaults[{name!r}] else {name}"
        body.append(f"_set(self, {name!r}, {value})")

    def values(of: str) -> str:
        return "(" + "".join(f"{of}{name}, " for name in cls._fields) + ")"

    stored = hasattr(cls, "_hash")
    if stored:
        body.append(f"_set(self, '_hash', hash({values('')}))")
    if sides is not None:
        body.append(f"_set(self, '_sides', {sides})")
    fields_equal = f"{values('self.')} == {values('other.')}"
    # the source holds only the class's own field names; values reach
    # it through the namespace
    source = "\n".join([
        f"def __init__({', '.join(params)}):",
        *(f"    {line}" for line in body or ["pass"]),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return self._hash == other._hash and {fields_equal}" if stored else
        f"        return {fields_equal}",
        "    return NotImplemented",
        "def __hash__(self):",
        "    return self._hash" if stored else f"    return hash({values('self.')})",
    ])
    # compiled per class, never shared: the interpreter's attribute
    # caches in a code object serve one class best
    namespace = {"_set": _set, "_defaults": defaults}
    exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
    frozen = cls.__setattr__ is not _set  # Frozen and its subclasses
    own = vars(cls)
    for name in ("__init__", "__eq__", "__hash__") if frozen else ("__init__", "__eq__"):
        if name not in own:
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)


class Frozen(Record):
    """A record that cannot change after construction: it hashes on its
    fields (a :class:`Term` or :class:`Problem` stores that hash), and
    assigning or deleting a field raises :class:`AttributeError`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Term(Frozen):
    """Base class for all term constructors.

    Besides its fields, every node stores two values computed at
    construction from its arguments' stored ones, so neither walks the term
    nor recurses, however deep it is: its hash, the same value as its
    fields' tuple hash, and its side mask, the union of the bits
    (:data:`_SIDE_BITS`) of the signature sides of its non-atomic subterms,
    which makes :func:`is_pure` one test.  Neither is a field, and copying
    or pickling rebuilds both through the constructor.
    """

    __slots__ = ("_hash", "_sides")


class Var(Term):
    __slots__ = ("name",)


class Const(Term):
    __slots__ = ("name",)


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
        _set(self, "_hash", hash((path,)))
        _set(self, "_sides", 0)


class Zero(Term):
    """The xor unity element.  A dedicated constructor, not a constant named
    ``0``, so unity checks cannot be spoofed by a user-defined constant."""

    __slots__ = ()


class Seq(Term):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        _set(self, "items", items)
        if not items:
            raise ValueError("sequence must be nonempty")
        _set(self, "_hash", hash((items,)))
        sides = _SIDE_BITS[STD]
        for item in items:
            sides |= item._sides
        _set(self, "_sides", sides)


class Penc(Term):
    """Public-key encryption of ``body`` under ``key``."""

    __slots__ = ("body", "key")


class Senc(Term):
    """Symmetric encryption of ``body`` under ``key``."""

    __slots__ = ("body", "key")


class Pk(Term):
    __slots__ = ("agent",)


class Sh(Term):
    __slots__ = ("a", "b")


class Xor(Term):
    """Variadic xor node.  Width is at least two at construction; nested xors
    stay nested until :func:`acun_normal_form` is applied explicitly."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[Term, ...]) -> None:
        _set(self, "items", items)
        if len(items) < 2:
            raise ValueError("xor needs at least two summands")
        _set(self, "_hash", hash((items,)))
        sides = _SIDE_BITS[XOR]
        for item in items:
            sides |= item._sides
        _set(self, "_sides", sides)


STD = "std"
XOR = "xor"
_SIDE_BITS = {STD: 1, XOR: 2}  # each signature side's bit in a term's side mask


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


def _install_terms() -> None:
    """Give the base and each constructor their methods, which derive a
    node's side mask from the table: 0 for an atom, else its side's bit and
    its arguments' masks.  Seq and Xor, the variadic ones, write their own
    constructors."""
    _install(Term, {}, "0")
    for cls, sig in SIGNATURE.items():
        sides = None
        if sig.op is None:
            sides = "0"
        elif not sig.variadic:
            sides = " | ".join([str(_SIDE_BITS[sig.side]), *(f"{a}._sides" for a in cls._fields)])
        _install(cls, {}, sides)


_install_terms()
ZERO = Zero()


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


# per theory, the bits of the sides outside it: none is in a pure term's mask
_ALIEN_SIDES = {
    th: sum(bit for side, bit in _SIDE_BITS.items() if side not in th.sides) for th in Theory
}


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
    theory.  One test of the node's stored side mask.
    """
    return not t._sides & _ALIEN_SIDES[th]


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

    __slots__ = ("lhs", "rhs", "_hash")


def problem_vars(problems: Iterable[Problem]) -> frozenset[str]:
    out: set[str] = set()
    for p in problems:
        out |= vars_of(p.lhs) | vars_of(p.rhs)
    return frozenset(out)
