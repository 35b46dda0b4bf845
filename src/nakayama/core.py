"""Nakayama algebras presented by admissible sequences, and their uniserial modules.

Conventions used everywhere in this package:

* Vertices are 1..n.  Arrows go (i+1 -> i) for 1 <= i <= n-1, plus (1 -> n) in
  the cyclic case, so radical layers of projectives walk downward through the
  vertex labels.
* An admissible sequence c = (c_1, .., c_n) records c_i = dim P_i, the length
  of the indecomposable projective with top S_i.  Admissibility:
    cyclic: c_{i+1} <= c_i + 1 for all i mod n, and c_i >= 2 for all i;
    linear: c_1 = 1, c_i >= 2 for i >= 2, c_{i+1} <= c_i + 1 (hence c_i <= i).
* Every indecomposable module is uniserial, written M(i, l): top S_i,
  composition factors S_i, S_{i-1}, ..., S_{i-l+1} from top to socle.
  In the cyclic case indices wrap and l may exceed n; in the linear case
  l <= i always.  M(i, c_i) is the projective P_i.
* A linear sequence is a cyclic one with c_1 = 1: P_1 = S_1, so the arrow
  1 -> n acts as zero and mod A is a full subcategory of the cyclic quiver's
  representations (Assem-Simson-Skowronski I, III.1).  So indices, and
  c_{n+1} = c_1, are read mod n, and every formula holds for both kinds.
* The zero module is represented by None; its textual form is "0".

Textual forms: algebras serialize as "cyclic:3,2,3,4,3" / "linear:1,2,2",
modules as "M(i,l)".  These round-trip through parse_algebra / parse_module.
"""

from functools import total_ordering


# --- extended natural numbers ------------------------------------------------

class _Infinity:
    """Positive infinity for homological dimensions; larger than every int."""

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("nakayama-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        if isinstance(other, int):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, _Infinity)):
            return True
        return NotImplemented

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "inf"


INF = _Infinity()


def dim_json(d):
    """JSON value for a dimension: int, or the string 'inf'."""
    return d if isinstance(d, int) else "inf"


# --- admissible sequences ----------------------------------------------------

KINDS = ("cyclic", "linear")


def check_kind(kind):
    """Raise ValueError unless kind is one of KINDS."""
    if kind not in KINDS:
        raise ValueError("kind must be 'cyclic' or 'linear', got %r" % (kind,))


def _entry(x):
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError):
        pass
    raise ValueError("sequence entry %r is not an integer" % (x,))


class AdmissibleSequence:
    """A Nakayama algebra, given by its kind and admissible sequence.

    Besides the fields it keeps n = len(c), stored once at construction
    because every Hom count and walk reads it, and the opposite algebra,
    built by `opposite` on first use.  Neither takes part in equality,
    hashing or repr, which use (kind, c) only.
    """

    def __init__(self, kind, c):
        check_kind(kind)
        c = tuple(map(_entry, c))
        n = len(c)
        self.kind = kind
        self.c = c
        self.n = n
        self._opposite = None
        if n == 0:
            raise ValueError("empty sequence")
        if kind == "cyclic":
            for i, ci in enumerate(c):
                if ci < 2:
                    raise ValueError("cyclic sequence needs c_i >= 2, got c_%d = %d" % (i + 1, ci))
                if c[(i + 1) % n] > ci + 1:
                    raise ValueError("c_%d = %d exceeds c_%d + 1 = %d"
                                     % ((i + 1) % n + 1, c[(i + 1) % n], i + 1, ci + 1))
        else:
            if c[0] != 1:
                raise ValueError("linear sequence needs c_1 = 1, got %d" % c[0])
            for i in range(1, n):
                if c[i] < 2:
                    raise ValueError("linear sequence needs c_i >= 2 for i >= 2, got c_%d = %d"
                                     % (i + 1, c[i]))
                if c[i] > c[i - 1] + 1:
                    raise ValueError("c_%d = %d exceeds c_%d + 1 = %d"
                                     % (i + 1, c[i], i, c[i - 1] + 1))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.c) == (other.kind, other.c)
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.c))

    def normalize(self, i):
        """Bring a vertex index into 1..n (mod n in the cyclic case)."""
        if self.kind == "cyclic":
            return (i - 1) % self.n + 1
        assert 1 <= i <= self.n, "vertex %d out of range" % i
        return i

    def c_at(self, i):
        """c_i with the index read mod n."""
        return self.c[(i - 1) % self.n]

    def __repr__(self):
        return "AdmissibleSequence(%r, %r)" % (self.kind, list(self.c))


def rotation_normal_form(c):
    """(r, t): r = c_{t+1}, ..., c_n, c_1, ..., c_t is the least rotation of c,
    with the least such t; vertex j of cyclic:r is vertex j + t of cyclic:c.
    O(n): where the rotations at i and j first differ, after k equal entries,
    the larger one's starts i .. i + k (or j .. j + k) are none of them least."""
    c = tuple(c)
    n = len(c)
    cc = c * 2
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = cc[i + k], cc[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    t = min(i, j)
    return c[t:] + c[:t], t


def validate(kind, c):
    """Check admissibility and build the algebra; raises ValueError if invalid."""
    return AdmissibleSequence(kind, tuple(c))


def format_algebra(alg):
    return "%s:%s" % (alg.kind, ",".join(str(x) for x in alg.c))


def parse_algebra(text):
    kind, colon, rest = text.partition(":")
    if not colon:
        raise ValueError("expected 'kind:c1,c2,...', got %r" % text)
    try:
        c = [int(x) for x in rest.split(",")]
    except ValueError:
        raise ValueError("could not parse %r as a comma-separated "
                         "integer sequence" % rest) from None
    return validate(kind.strip(), c)


# --- uniserial modules -------------------------------------------------------

@total_ordering
class Uniserial:
    """The uniserial module M(top, length).

    Equality, hash and order go by the tuple (top, length), and order is
    defined between Uniserials only.  hash(M(i, l)) == hash((i, l)), so set
    and dict order, and every digest taken over them, follow the ints.
    """

    __slots__ = ("top", "length")

    def __init__(self, top, length):
        self.top = top
        self.length = length

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.top == other.top and self.length == other.length
        return NotImplemented

    def __hash__(self):
        return hash((self.top, self.length))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.length) < (other.top, other.length)
        return NotImplemented

    def __repr__(self):
        return "M(%d,%d)" % (self.top, self.length)


def valid_uniserial(alg, top, length):
    if length < 1:
        return False
    if alg.kind == "linear" and not (1 <= top <= alg.n and top - length + 1 >= 1):
        return False
    return length <= alg.c_at(top)


def make_module(alg, top, length):
    """Normalized constructor for M(top, length); rejects invalid shapes."""
    if alg.kind == "cyclic":
        top = alg.normalize(top)
    if not valid_uniserial(alg, top, length):
        raise ValueError("no uniserial M(%d,%d) over %s" % (top, length, format_algebra(alg)))
    return Uniserial(top, length)


def socle_vertex(alg, u):
    return alg.normalize(u.top - u.length + 1)


def format_module(u):
    return "0" if u is None else "M(%d,%d)" % (u.top, u.length)


def parse_module(alg, text):
    text = text.strip()
    if text == "0":
        return None
    inner = text[2:-1] if text.startswith("M(") and text.endswith(")") else ""
    try:
        i, l = (int(x) for x in inner.split(","))
    except ValueError:
        raise ValueError("expected 'M(i,l)' or '0', got %r" % text) from None
    return make_module(alg, i, l)


def indecomposables(alg):
    """All indecomposable modules: M(i, l) for 1 <= l <= c_i.  Count = sum(c)."""
    out = []
    for i in range(1, alg.n + 1):
        for l in range(1, alg.c[i - 1] + 1):
            out.append(Uniserial(i, l))
    return out


def projective(alg, i):
    i = alg.normalize(i)
    return Uniserial(i, alg.c[i - 1])


def is_projective(alg, u):
    return u.length == alg.c[u.top - 1]


def injective(alg, j):
    """Injective envelope of S_j: D of the opposite's projective at j*
    (see opposite), so O(1) once the opposite is built."""
    op = opposite(alg)
    return dual(op, projective(op, _star(alg, alg.normalize(j))))


def is_injective(alg, u):
    """M(i, l) is injective iff l >= c_{i+1}: it lies in no M(i+1, l+1)."""
    return u.length >= alg.c_at(u.top + 1)


def tau(alg, u):
    """Auslander-Reiten translate: M(i,l) -> M(i-1,l); zero for projectives."""
    if is_projective(alg, u):
        return None
    return Uniserial(alg.normalize(u.top - 1), u.length)


def tau_inv(alg, u):
    """Inverse translate: M(i,l) -> M(i+1,l); zero for injectives."""
    if is_injective(alg, u):
        return None
    return Uniserial(alg.normalize(u.top + 1), u.length)


def _star(alg, i):
    """The label i* = 1 - i mod n over the opposite algebra of the vertex i here."""
    return -i % alg.n + 1


def opposite(alg):
    """The opposite algebra, relabeled so arrows again run (i+1 -> i).

    The projective of the opposite at the new label i* = 1 - i mod n has the
    length of the injective envelope I(S_i) here.  Applying the map twice
    returns the original sequence.

    Since c_{i+1} <= c_i + 1, h_i = i - c_i never decreases over the lifted
    vertices i in Z, and M(i, i - j + 1) exists iff h_i < j, so
    I(S_j) = M(i*, i* - j + 1) for the last such i*.  One O(n) sweep finds
    them all, starting at j = 1's i*, max r + floor(-h_r / n) n.  A linear
    sweep stops by n, since h_{n+1} = n + 1 - c_1 = n >= j.

    Built on the first call and kept on alg, so every later call returns
    the same object.
    """
    op = alg._opposite
    if op is None:
        n, c = alg.n, alg.c
        i = max(r + (c[r - 1] - r) // n * n for r in range(1, n + 1))
        cop = [0] * n
        for j in range(1, n + 1):
            # h_{i+1} = i + 1 - c_{i+1}, with c read mod n
            while i + 1 - c[i % n] < j:
                i += 1
            cop[_star(alg, j) - 1] = i - j + 1
        op = validate(alg.kind, cop)
        alg._opposite = op
    return op


def dual(alg, u):
    """The dual D u = Hom_k(u, k), a module over opposite(alg).

    D reverses composition series, so D M(i, l) = M(s*, l) for the socle
    vertex s of M(i, l), and it swaps projectives and injectives.  Applied
    again from the opposite it returns u.
    """
    return Uniserial(_star(alg, socle_vertex(alg, u)), u.length)


# --- direct sums -------------------------------------------------------------

class ModuleSum:
    """A finite multiset of uniserials, kept sorted for deterministic output."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(sorted(summands))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.summands == other.summands
        return NotImplemented

    def __hash__(self):
        return hash((self.summands,))

    @classmethod
    def of(cls, items):
        return cls(tuple(items))

    def is_basic(self):
        return len(set(self.summands)) == len(self.summands)

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __repr__(self):
        return " + ".join(format_module(u) for u in self.summands) or "0"


def summands(m):
    """The summands of a module argument: None is the zero module, a
    Uniserial one summand, and a ModuleSum, list or tuple its own
    (elements unchecked); anything else raises ValueError."""
    if isinstance(m, Uniserial):
        return (m,)
    if isinstance(m, ModuleSum):
        return m.summands
    if isinstance(m, (list, tuple)):
        return m
    if m is None:
        return ()
    raise ValueError("expected a module or a sum of modules, got %s %r"
                     % (type(m).__name__, m))


def basic_sum(m):
    """A module argument as a ModuleSum, read by summands (a ModuleSum is
    returned as is); repeated summands raise ValueError."""
    if not isinstance(m, ModuleSum):
        m = ModuleSum(summands(m))
    if not m.is_basic():
        raise ValueError("summands must be multiplicity-free")
    return m


def parse_module_sum(alg, text):
    """The sum of the '+'-separated modules in text; a '0' part adds nothing."""
    parts = (parse_module(alg, part) for part in text.split("+"))
    return ModuleSum.of(u for u in parts if u is not None)
