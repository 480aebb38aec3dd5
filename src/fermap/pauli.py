"""Exact symbolic algebra of n-qubit Pauli strings and their weighted sums.

A Pauli string is a pair of bitmasks over the qubits plus a global phase
that is an exact fourth root of unity.  Qubit ``q`` carries X when only
bit ``q`` of ``x_mask`` is set, Z when only bit ``q`` of ``z_mask`` is
set, Y when both are set, and identity when neither is.  Qubit 0 is the
least significant bit, so masks serialize identically everywhere.  The
phase is stored as an integer exponent of i modulo 4; no phase ever
touches floating point.

A ``QubitOperator`` keys each term by the ``(x_mask, z_mask)`` pair of a
phase-free letter string; a string's phase is folded into the
coefficient when the string enters the operator.  Products of masks follow
one phase rule (``_mul_masks``), shared by operators, strings and the
encoders' monomial folds.

Long sums are accumulated in place in one term map (``_add_terms``, as
``encode_model`` and the LSFS penalty do): the coefficients and term order
of chained ``+``, without copying the growing sum at every step.  One
writer, ``QubitOperator.to_json_text``, serializes straight from the masks;
tests pin its text byte for byte to
``json.dumps(to_json_dict(), sort_keys=True, indent=1)`` at any depth.

The oracles apply operators to sparse states ``{basis state: amplitude}``
(``QubitOperator.apply``); ``to_dense`` writes its columns into a matrix
of at most ``DENSE_CAP_DEFAULT`` qubits by default, for the tests.  numpy
is imported there and in ``models.fock_matrix`` alone, and no command
reaches either: importing it costs more than the rest of ``fermap``.  Nor
does any command load the standard library's data-class module (it pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, ~12 ms a launch): the value
classes are plain slotted classes whose ``__init__`` runs their checks, and
``_Value`` gives them equality, hash and repr over their fields.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

DENSE_CAP_DEFAULT = 12

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class DimensionError(ValueError):
    """Operands act on different numbers of qubits."""


class DenseCapError(RuntimeError):
    """Dense rendering was requested beyond the configured qubit cap."""


def _mul_masks(xa: int, za: int, xb: int, zb: int) -> tuple[int, int, int]:
    """Masks and i-exponent (mod 4) of the product of two phase-free strings."""
    # Work in X^x Z^z normal form: commuting Z past X flips sign, and
    # each Y letter is i * XZ, so letter counts enter the exponent.
    x, z = xa ^ xb, za ^ zb
    exp = (xa & za).bit_count() + (xb & zb).bit_count() - (x & z).bit_count()
    return x, z, (exp + 2 * (za & xb).bit_count()) % 4


def _commutes(xa: int, za: int, xb: int, zb: int) -> bool:
    """True iff the two strings' symplectic inner product is even."""
    return not ((xa & zb) ^ (za & xb)).bit_count() % 2


def _add_terms(terms: dict, items: Iterable[tuple[tuple[int, int], complex]]):
    """Add unique-key ``(key, coeff)`` items into ``terms``; exact zeros drop out."""
    for key, coeff in items:
        if coeff:
            coeff = terms.get(key, 0j) + coeff
            if coeff:
                terms[key] = coeff
            else:
                del terms[key]


def _ops(x: int, z: int) -> Iterator[tuple[int, str]]:
    """Non-identity (qubit, letter) pairs of the masks, in qubit order."""
    support = x | z
    while support:  # one step per set bit, lowest first
        low = support & -support
        yield low.bit_length() - 1, _LETTERS[(x & low) != 0, (z & low) != 0]
        support ^= low


def _check_same_size(a, b):
    if a.n_qubits != b.n_qubits:
        raise DimensionError(
            f"operands act on {a.n_qubits} and {b.n_qubits} qubits"
        )


class _Value:
    """Equality, hash and repr over the fields a plain class names in ``__slots__``
    (a ``"__dict__"`` slot holds only cached properties); ``__init__`` sets each once."""

    __slots__ = ()

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name != "__dict__"}

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self._fields().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__name__}({fields})"


class PauliString(_Value):
    """A signed tensor product of single-qubit Pauli operators.

    The represented operator is ``i**phase_exp`` times the product of the
    I/X/Y/Z letters encoded by the masks.
    """

    __slots__ = ("n_qubits", "x_mask", "z_mask", "phase_exp")

    def __init__(self, n_qubits: int, x_mask: int, z_mask: int, phase_exp: int = 0):
        if n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        full = (1 << n_qubits) - 1
        if x_mask & ~full or z_mask & ~full:
            raise DimensionError("mask has bits beyond n_qubits")
        self.n_qubits, self.x_mask, self.z_mask = n_qubits, x_mask, z_mask
        self.phase_exp = phase_exp % 4

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0, 0)

    @classmethod
    def from_ops(
        cls,
        n_qubits: int,
        ops: Iterable[tuple[int, str]] | Mapping[int, str] = (),
        phase_exp: int = 0,
    ) -> "PauliString":
        """Build a string from (qubit, letter) pairs, letters in "IXYZ"."""
        if isinstance(ops, Mapping):
            ops = ops.items()
        x = z = 0
        for qubit, letter in ops:
            if not 0 <= qubit < n_qubits:
                raise IndexError(f"qubit {qubit} outside register of {n_qubits}")
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            bit = 1 << qubit
            if (x | z) & bit and letter != "I":
                raise ValueError(f"qubit {qubit} assigned twice")
            x |= xb * bit
            z |= zb * bit
        return cls(n_qubits, x, z, phase_exp)

    @property
    def phase(self) -> complex:
        """The global phase as an exact complex fourth root of unity."""
        return _PHASES[self.phase_exp]

    def ops(self) -> tuple[tuple[int, str], ...]:
        """Non-identity (qubit, letter) pairs in qubit order."""
        return tuple(_ops(self.x_mask, self.z_mask))

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        _check_same_size(self, other)
        x, z, exp = _mul_masks(self.x_mask, self.z_mask, other.x_mask, other.z_mask)
        return PauliString(self.n_qubits, x, z, self.phase_exp + other.phase_exp + exp)

    def __str__(self) -> str:
        prefix = {0: "", 1: "i*", 2: "-", 3: "-i*"}[self.phase_exp]
        body = " ".join(f"{letter}{q}" for q, letter in self.ops())
        return prefix + (body or "I")


class QubitOperator:
    """A complex-weighted sum of Pauli strings on a fixed register.

    Each term is keyed by the ``(x_mask, z_mask)`` pair of a phase-free
    letter string, which is Hermitian; a string enters only through
    ``_add_term``, which folds its phase into the coefficient.  Keys are
    combined only by XOR between operators of the same size, or shifted
    by ``lsfs`` into one spin block of an ``LsfsSpec`` register, so every
    key fits the register without a per-key check.  Terms with exactly
    zero coefficient are dropped, and serialization orders terms
    lexicographically on (z_mask, x_mask).
    """

    __slots__ = ("n_qubits", "_terms")

    def __init__(self, n_qubits: int, terms: Mapping[PauliString, complex] | None = None):
        self.n_qubits = n_qubits
        self._terms: dict[tuple[int, int], complex] = {}
        if terms:
            for ps, coeff in terms.items():
                self._add_term(ps, coeff)
            self._prune()

    @classmethod
    def zero(cls, n_qubits: int) -> "QubitOperator":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "QubitOperator":
        return cls.from_paulistring(PauliString.identity(n_qubits), coeff)

    @classmethod
    def from_paulistring(cls, ps: PauliString, coeff: complex = 1.0) -> "QubitOperator":
        op = cls(ps.n_qubits)
        op._add_term(ps, coeff)
        op._prune()
        return op

    def _add_term(self, ps: PauliString, coeff: complex):
        if ps.n_qubits != self.n_qubits:
            raise DimensionError("term register size differs from operator")
        key = (ps.x_mask, ps.z_mask)
        self._terms[key] = self._terms.get(key, 0j) + complex(coeff) * ps.phase

    def _prune(self):
        for key in [key for key, c in self._terms.items() if c == 0]:
            del self._terms[key]

    @property
    def terms(self) -> dict[PauliString, complex]:
        """The term map as phase-free strings to coefficients, in insertion order."""
        n = self.n_qubits
        return {PauliString(n, x, z): c for (x, z), c in self._terms.items()}

    def sorted_terms(self) -> list[tuple[PauliString, complex]]:
        n = self.n_qubits
        items = sorted(self._terms.items(), key=lambda item: (item[0][1], item[0][0]))
        return [(PauliString(n, x, z), c) for (x, z), c in items]

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self.sorted_terms())

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if not isinstance(other, QubitOperator):
            return NotImplemented
        _check_same_size(self, other)
        out = QubitOperator(self.n_qubits)
        out._terms = dict(self._terms)
        _add_terms(out._terms, other._terms.items())
        return out

    def __sub__(self, other: "QubitOperator") -> "QubitOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "QubitOperator":
        if isinstance(scalar, (int, float, complex)):
            out = QubitOperator(self.n_qubits)
            out._terms = {key: scalar * c for key, c in self._terms.items()}
            out._prune()
            return out
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        if not isinstance(other, QubitOperator):
            return NotImplemented
        _check_same_size(self, other)
        out = QubitOperator(self.n_qubits)
        for (xa, za), ca in self._terms.items():
            for (xb, zb), cb in other._terms.items():
                x, z, exp = _mul_masks(xa, za, xb, zb)
                out._terms[x, z] = out._terms.get((x, z), 0j) + ca * cb * _PHASES[exp]
        out._prune()
        return out

    def max_weight(self) -> int:
        """Largest Pauli weight among the summands (0 for the zero operator)."""
        return max(((x | z).bit_count() for x, z in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitOperator):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self._terms == other._terms

    def apply(self, vector: Mapping[int, complex]) -> dict[int, complex]:
        """The sum applied to a sparse state ``{basis state: amplitude}``; zeros drop out."""
        out: dict[int, complex] = {}
        for (x, z), coeff in self._terms.items():
            # X^x Z^z sends |s> to (-1)^{|s & z|} |s ^ x>; Y letters add i each.
            coeff *= _PHASES[(x & z).bit_count() % 4]
            for s, amp in vector.items():
                term = coeff * amp
                out[s ^ x] = out.get(s ^ x, 0j) + (-term if (s & z).bit_count() % 2 else term)
        return {s: amp for s, amp in out.items() if amp}

    def to_dense(self, cap: int = DENSE_CAP_DEFAULT):
        """Exact dense matrix of the sum, column s the image of basis state s."""
        import numpy as np
        if self.n_qubits > cap:
            raise DenseCapError(
                f"{self.n_qubits} qubits exceeds dense cap of {cap}"
            )
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            for row, amp in self.apply({col: 1}).items():
                mat[row, col] = amp
        return mat

    def to_json_dict(self) -> dict:
        terms = [
            {"coeff": [c.real, c.imag], "paulis": [[q, letter] for q, letter in ps.ops()]}
            for ps, c in self.sorted_terms()
        ]
        return {"n_qubits": self.n_qubits, "terms": terms}

    def to_json_text(self, depth: int = 0) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=1)`` at
        nesting ``depth``, written straight from the term masks."""
        p0, p1, p2, p3, p4, p5 = ("\n" + " " * (depth + k) for k in range(6))
        pairs = {}  # (qubit, letter) -> its [q, "L"] text, built once per call
        terms = []
        for (x, z), c in sorted(self._terms.items(), key=lambda item: (item[0][1], item[0][0])):
            paulis = []
            for pair in _ops(x, z):
                if pair not in pairs:
                    pairs[pair] = f'[{p5}{pair[0]},{p5}"{pair[1]}"{p4}]'
                paulis.append(pairs[pair])
            paulis = f"[{p4}{(',' + p4).join(paulis)}{p3}]" if paulis else "[]"
            re, im = float.__repr__(c.real), float.__repr__(c.imag)  # as json spells floats
            re, im = _JSON_NONFINITE.get(re, re), _JSON_NONFINITE.get(im, im)
            terms.append(f'{{{p3}"coeff": [{p4}{re},{p4}{im}{p3}],{p3}"paulis": {paulis}{p2}}}')
        terms = f"[{p2}{(',' + p2).join(terms)}{p1}]" if terms else "[]"
        return f'{{{p1}"n_qubits": {self.n_qubits},{p1}"terms": {terms}{p0}}}'

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QubitOperator":
        n = int(data["n_qubits"])
        out = cls(n)
        for term in data["terms"]:
            re, im = term["coeff"]
            ps = PauliString.from_ops(n, [(int(q), str(p)) for q, p in term["paulis"]])
            out._add_term(ps, complex(re, im))
        out._prune()
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = [f"({c.real:+g}{c.imag:+g}j) {ps}" for ps, c in self.sorted_terms()]
        return " + ".join(parts)

    __repr__ = __str__
