"""Named bipartite states, the flip witness, twirling, and state lifting."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import MATRIX_BUDGET, _check_dim, _check_matrix_budget, _check_operator, _check_real, _frozen, basis_ket, flip, is_density, partial_trace, projector, tensor


def _check_density(mat: np.ndarray) -> None:
    """A ValueError unless mat, or each item of a stack, is a density matrix."""
    check = is_density(mat)
    if not check:
        raise ValueError(
            "not a density matrix: hermiticity error "
            f"{check.hermiticity_error:.3e}, min eigenvalue {check.min_eigenvalue:.3e}, "
            f"trace error {check.trace_error:.3e}"
        )


@dataclass
class DensityMatrix:
    """Positive unit-trace matrix with bipartite dimension metadata, held read-only (see qmat._frozen)."""

    mat: np.ndarray
    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        self.d_a, self.d_b = _check_dim(self.d_a, "d_a", 1), _check_dim(self.d_b, "d_b", 1)
        self.mat = _frozen(_check_operator(self.mat, "mat", self.d_a * self.d_b), self.mat)
        _check_density(self.mat)

    @classmethod
    def _trusted(cls, mat: np.ndarray, d_a: int, d_b: int) -> "DensityMatrix":
        """A closed-form state that is a density matrix by construction, frozen without a copy; skips
        the eigensolve that checks matrices from outside (O(dim^3))."""
        rho = object.__new__(cls)
        rho.mat, rho.d_a, rho.d_b = np.asarray(mat, dtype=complex), d_a, d_b
        rho.mat.setflags(write=False)
        return rho

    @property
    def dim(self) -> int:
        return len(self.mat)

    def reduced(self, side: str = "A") -> np.ndarray:
        """Reduced operator of one party (side='A' keeps Alice)."""
        traced = "B" if side == "A" else "A"
        return partial_trace(self.mat, self.d_a, self.d_b, side=traced)

    # Characters of the longest text that to_json writes for a state of k
    # entries: 64 + k * _ENTRY_CHARS, a header and per entry ", [re, im]" with
    # floats of the longest repr, 24 characters as in -2.2250738585072014e-308.
    # JSON_BYTES is that bound for the largest state within qmat.MATRIX_BUDGET.
    _ENTRY_CHARS = len(", [-2.2250738585072014e-308, -2.2250738585072014e-308]")
    JSON_BYTES = 64 + MATRIX_BUDGET // 16 * _ENTRY_CHARS

    def to_json(self) -> str:
        """{"dA": int, "dB": int, "entries": [[re, im], ...]}, the entries of
        the matrix in row-major order."""
        entries = [[float(z.real), float(z.imag)] for z in self.mat.reshape(-1)]
        return json.dumps({"dA": self.d_a, "dB": self.d_b, "entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        """The state that to_json wrote; any other text is a ValueError.
        Before any of it is decoded, dA and dB, the only integer-valued keys,
        are read from the text and checked against qmat.MATRIX_BUDGET, and
        the text may hold no more characters besides whitespace than the
        longest text that to_json writes for a dA x dB state."""
        dims = dict(re.findall(r'"d([AB])"\s*:\s*([^\s,}\]]*)', text))
        tokens = dims.get("A"), dims.get("B")
        if not all(re.fullmatch("[1-9][0-9]*", t or "") for t in tokens):
            raise ValueError(f"expected positive integers dA, dB, got {tokens[0]}, {tokens[1]}")
        d_a, d_b = map(int, tokens)
        _check_matrix_budget(d_a, d_b)
        d = d_a * d_b
        chars, limit = len(text) - sum(map(text.count, " \t\n\r")), 64 + d * d * cls._ENTRY_CHARS
        if chars > limit:
            raise ValueError(f"{chars} characters besides whitespace, more than any {d_a}x{d_b} state's JSON ({limit})")
        obj = json.loads(text)
        if not isinstance(obj, dict) or "entries" not in obj or (obj.get("dA"), obj.get("dB")) != (d_a, d_b):
            raise ValueError("expected a JSON object with the keys dA, dB, entries")
        try:
            flat = np.array([complex(x, y) for x, y in obj["entries"]])
        except (TypeError, ValueError):
            raise ValueError("matrix entries must be a list of [re, im] number pairs") from None
        if flat.size != d * d:
            raise ValueError(f"expected (dA*dB)^2 = {d * d} entries, got {flat.size}")
        return cls(flat.reshape(d, d), d_a, d_b)


def singlet() -> DensityMatrix:
    """|Psi-><Psi-| with |Psi-> = (|01> - |10>)/sqrt(2)."""
    return DensityMatrix._trusted(projector(singlet_ket()), 2, 2)


def singlet_ket(d_a: int = 2, d_b: int = 2) -> np.ndarray:
    """(|01> - |10>)/sqrt(2), supported on the first two local levels."""
    psi = np.zeros(d_a * d_b, dtype=complex)
    psi[1], psi[d_b] = 1.0, -1.0  # |01> and |10> in the product basis
    return psi / np.sqrt(2)


def werner_phi(d: int, phi: float) -> DensityMatrix:
    """Werner state on C^d (x) C^d with tr(V W) = phi.

    W = [(d - phi) I + (d phi - 1) V] / (d^3 - d), phi in [-1, 1].
    """
    d, phi = _check_dim(d, lo=2), _check_real(phi, -1, 1, "phi")
    _check_matrix_budget(d)
    # built in place in V's one array with the bits of the formula: adding
    # 0.0 everywhere, as the sum's zero entries of I did, clears signed zeros
    w = flip(d)
    w *= d * phi - 1
    w += 0.0
    w.reshape(-1)[:: d * d + 1] += d - phi
    w /= d**3 - d
    return DensityMatrix._trusted(w, d, d)


def werner_local_phi(d: int) -> float:
    """Flip parameter of the Werner state simulated by the minimizer model."""
    d = _check_dim(d, lo=2)
    return -1.0 + (1.0 + d) / d**2


def werner_local(d: int) -> DensityMatrix:
    """The entangled Werner state with phi = -1 + (1+d)/d^2."""
    return werner_phi(d, werner_local_phi(d))


def werner2x2(alpha: float) -> DensityMatrix:
    """alpha |Psi-><Psi-| + (1 - alpha) I/4 on two qubits, the Werner state with phi = (1 - 3 alpha)/2."""
    alpha = _check_real(alpha, 0, 1, "alpha")
    return werner_phi(2, (1 - 3 * alpha) / 2)


def barrett_alpha(d: int) -> float:
    d = _check_dim(d, lo=2)
    return (d - 1) ** (d - 1) * (3 * d - 1) / ((d + 1) * d**d)


def barrett_state(d: int) -> DensityMatrix:
    """alpha A/tr(A) + (1 - alpha) I/d^2 for the antisymmetric projector
    A = (I - V)/2, the Werner state with phi = -alpha + (1 - alpha)/d. The
    weight alpha = (d-1)^(d-1) (3d-1) / ((d+1) d^d) is above 1/(1+d), so the
    state is entangled for every d >= 2."""
    _check_matrix_budget(d)  # before barrett_alpha's integer powers, of about d log2(d) bits
    alpha = barrett_alpha(d)
    return werner_phi(d, -alpha + (1 - alpha) / d)


def rho_g(q: float) -> DensityMatrix:
    """q |Psi-><Psi-| + (1-q) |0><0| (x) I/2 on two qubits."""
    q = _check_real(q, 0, 1, "q")
    noise = tensor(projector(basis_ket(2, 0)), np.eye(2) / 2)
    return DensityMatrix._trusted(q * singlet().mat + (1 - q) * noise, 2, 2)


def rho_e(q: float) -> DensityMatrix:
    """q |Psi-><Psi-| + (1-q) |2><2| (x) I/2 on C^3 (x) C^2.

    The singlet lives in the span of the first two qutrit levels; |2> is
    the flag level that local filtering removes.
    """
    q = _check_real(q, 0, 1, "q")
    psi = singlet_ket(3, 2)
    noise = tensor(projector(basis_ket(3, 2)), np.eye(2) / 2)
    return DensityMatrix._trusted(q * projector(psi) + (1 - q) * noise, 3, 2)


def lift_state(rho0: DensityMatrix, sigma_a, sigma_b) -> DensityMatrix:
    """Noise-dilution map that turns a projective-local base state into a
    POVM-simulable one:

        rho' = [rho0 + (d-1)(rhoA (x) sigmaB + sigmaA (x) rhoB)
                + (d-1)^2 sigmaA (x) sigmaB] / d^2

    with rhoA, rhoB the reduced states of rho0. All local dimensions must
    equal the same d; the sigmas are arbitrary single-party d-level states.
    """
    d = rho0.d_a
    if rho0.d_b != d:
        raise ValueError(f"lift_state needs equal local dimensions, got {rho0.d_a}x{rho0.d_b}")
    sa, sb = (_check_operator(s.mat if isinstance(s, DensityMatrix) else s, "sigma", d) for s in (sigma_a, sigma_b))
    if not (is_density(sa) and is_density(sb)):
        raise ValueError("sigma is not a valid state")
    red_a, red_b = rho0.reduced("A"), rho0.reduced("B")
    m = (
        rho0.mat
        + (d - 1) * (tensor(red_a, sb) + tensor(sa, red_b))
        + (d - 1) ** 2 * tensor(sa, sb)
    ) / d**2
    return DensityMatrix(m, d, d)


def rho_g_prime(q: float) -> DensityMatrix:
    """lift_state(rho_g(q), P0, P0) for P0 = |0><0|, in closed form:
    [q |Psi-><Psi-| + (2-q) (P0 (x) I/2 + P0 (x) P0) + q (I/2 (x) P0)] / 4."""
    q = _check_real(q, 0, 1, "q")
    p0, half = projector(basis_ket(2, 0)), np.eye(2) / 2
    m = (q * singlet().mat + (2 - q) * (tensor(p0, half) + tensor(p0, p0)) + q * tensor(half, p0)) / 4
    return DensityMatrix._trusted(m, 2, 2)


def embed_local(rho: DensityMatrix, d_a: int, d_b: int) -> DensityMatrix:
    """Zero-pad each party into a larger local space (original levels first)."""
    d_a, d_b = _check_dim(d_a, "d_a", rho.d_a), _check_dim(d_b, "d_b", rho.d_b)  # no shrinking
    out = np.zeros((d_a, d_b, d_a, d_b), dtype=complex)
    out[: rho.d_a, : rho.d_b, : rho.d_a, : rho.d_b] = rho.mat.reshape(rho.d_a, rho.d_b, rho.d_a, rho.d_b)
    return DensityMatrix(out.reshape(d_a * d_b, d_a * d_b), d_a, d_b)


def restrict_block(rho: DensityMatrix, keep_a: tuple[int, ...], keep_b: tuple[int, ...]) -> DensityMatrix:
    """Restrict to the given local levels and renormalize.

    Each party's levels must be distinct integers in range of its dimension;
    raises if the kept block carries (almost) no weight.
    """
    for keep, d, who in ((keep_a, rho.d_a, "Alice"), (keep_b, rho.d_b, "Bob")):
        try:
            levels = [_check_dim(k, f"{who}'s level") for k in keep]
        except TypeError:  # keep is not iterable
            raise ValueError(f"{who}'s levels must be a sequence of integers, got {keep!r}") from None
        if len(set(levels)) < len(levels) or not all(0 <= k < d for k in levels):
            raise ValueError(f"{who}'s levels must be distinct and in range({d}), got {tuple(keep)!r}")
    idx = [a * rho.d_b + b for a in keep_a for b in keep_b]
    sub = rho.mat[np.ix_(idx, idx)]
    tr = np.trace(sub).real
    if tr < 1e-12:
        raise ValueError("kept block carries no weight")
    return DensityMatrix(sub / tr, len(keep_a), len(keep_b))


def flip_witness(rho: DensityMatrix) -> float:
    """tr(V rho). Negative values certify entanglement; for Werner states
    the sign decides separability exactly.

    The diagonal of V rho is rho[(b, a), (a, b)], so it is read off in O(d^2)
    without building V, and summed in row-major (a, b) order as np.trace
    sums it: the value has the bits of np.trace(flip(d) @ rho.mat).
    """
    d = rho.d_a
    if rho.d_b != d:
        raise ValueError(f"flip witness needs equal local dimensions, got {rho.d_a}x{rho.d_b}")
    # r[b, a, a, b] at [a, b]: diagonal(0, 1, 2) gives r[p, i, i, s] at [p, s, i]
    val = rho.mat.reshape(d, d, d, d).diagonal(0, 1, 2).diagonal(0, 0, 1).reshape(d * d).sum()
    if abs(val.imag) > 1e-10:
        raise ValueError(f"flip witness came out non-real ({val})")
    return float(val.real)


def twirl(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the span of {I, V}: the Werner state with the same
    trace and the same tr(V .) as the input. A witness up to 1e-12 outside
    [-1, 1] is rounding at an end of the range (d = 8 and 10 at phi = 1,
    d = 9 at phi = -1) and is clamped onto it."""
    phi = flip_witness(rho)
    if 1.0 < abs(phi) <= 1.0 + 1e-12:
        phi = float(np.sign(phi))
    return werner_phi(rho.d_a, phi)


# The named states of the CLI: each constructor's parameter names are the
# flags that set them, and a state's label lists their values.
STATES = {
    "singlet": singlet,
    "werner": werner_phi,
    "werner-local": werner_local,
    "werner2x2": werner2x2,
    "barrett": barrett_state,
    "rho-g": rho_g,
    "rho-g-prime": rho_g_prime,
    "rho-e": rho_e,
}
# The named Werner states (the singlet is phi = -1 at d = 2): the witness sign decides separability.
WERNER_STATES = ("singlet", "werner", "werner-local", "werner2x2", "barrett")


# Random-state generators used by the verification suites.

def random_density(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state G G^dag / tr(G G^dag) with Ginibre G."""
    dim = _check_dim(d_a, "d_a", 1) * _check_dim(d_b, "d_b", 1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, d_a, d_b)


def random_pure_product(d_a: int, d_b: int, rng: np.random.Generator) -> DensityMatrix:
    d_a, d_b = _check_dim(d_a, "d_a", 1), _check_dim(d_b, "d_b", 1)
    a = qmat.haar_ket(d_a, rng)
    b = qmat.haar_ket(d_b, rng)
    return DensityMatrix(tensor(projector(a), projector(b)), d_a, d_b)


def random_separable(d_a: int, d_b: int, rng: np.random.Generator, max_terms: int = 8) -> DensityMatrix:
    """Convex mixture of up to max_terms Haar-random pure product states."""
    max_terms = _check_dim(max_terms, "max_terms", 1)
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.random(k)
    weights /= weights.sum()
    m = sum(w * random_pure_product(d_a, d_b, rng).mat for w in weights)
    return DensityMatrix(m, d_a, d_b)
