import numpy as np
import pytest

from helmbound import (
    BasisSpec,
    FieldGrid,
    Method,
    Parity,
    QuadratureConfig,
    assemble,
    build_context,
    interface_rule,
    iterate_mode,
    make_domain,
    mode_seeds,
    semicircle_rule,
    steklov_table,
    steklov_trace,
)
from helmbound.basis import basis_tables, interface_factors
from helmbound.config import MODE_LABELS
from helmbound.errors import NoPositiveEigenvalue
from helmbound.reconstruct import _surface_fields

A, B = 1.0, 1.5


@pytest.fixture(scope="session")
def domain():
    return make_domain(A, B)


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def context_for(domain, quad):
    """Factory for cached assembly contexts keyed by (parity, n_max)."""
    cache = {}

    def get(parity: Parity, size: int = 15):
        key = (parity, size)
        if key not in cache:
            spec = BasisSpec(parity=parity, n_max=size, m_max=size)
            cache[key] = build_context(spec, domain, quad)
        return cache[key]

    return get


def _member_index(spec):
    """Flat index i * rows(A) + j of each member R[i] A[j] of ``family_factors``, in index order.

    The even factor tables lead with the linear member's factors, (0, 0);
    the product members follow row-major in (n, m), as in the basis module
    docstring.
    """
    lead = int(spec.parity is Parity.EVEN)
    cols = spec.m_max + lead
    grid = np.arange(lead, spec.n_max + lead)[:, None] * cols + np.arange(lead, cols)
    return np.concatenate([np.zeros(lead, dtype=int), grid.ravel()])


@pytest.fixture(scope="session")
def member_index():
    """The member flat indices of a spec's factor grid (``_member_index``)."""
    return _member_index


def _member_rows(spec, radial, angular):
    """Rows radial[i] * angular[j] of the members, in index order (_member_index),
    for radial rows over points and angular constants."""
    return (radial[:, None] * angular[:, None]).reshape(-1, radial.shape[-1])[_member_index(spec)]


@pytest.fixture(scope="session")
def interface_tables():
    """(T, D), the whole family's interface values and normal derivatives at
    points x, each (M, P): the member products of ``interface_factors``."""

    def get(spec, domain, x):
        R, A, DR, DA = interface_factors(spec, domain, x)
        return _member_rows(spec, R, A), _member_rows(spec, DR, DA)

    return get


@pytest.fixture(scope="session")
def kron_tables():
    """(G, S, T, D) over the whole family from the 1-D tables of ``basis_tables``.

    G = <phi_m|phi_n> and S = <phi_m|Lap phi_n> (M x M) are the Kronecker
    products of the basis_tables docstring restricted to the members, and
    the interface values T and normal derivatives D (M x Ks) the member
    products of the interface factors.
    """

    def get(spec, domain, volume_rule, surface_rule):
        RR, RP, RQ, AA, AAnu, R, A, DR, DA = basis_tables(spec, domain, volume_rule, surface_rule)
        members = np.ix_(_member_index(spec), _member_index(spec))
        G = np.kron(RR, AA)[members]
        S = (np.kron(RP, AA) - np.kron(RQ, AAnu))[members]
        return G, S, _member_rows(spec, R, A), _member_rows(spec, DR, DA)

    return get


@pytest.fixture(scope="session")
def family_tables(kron_tables):
    """Factory for the family-coordinate tables (G, S, T, D, psi, w) of a context.

    An independent reference for the context's compressed tables, built from
    its spec, domain, quadrature and Steklov truncation: ``kron_tables``, the
    Steklov traces psi (N x Ks) and the interface weights w.
    """
    cache = {}

    def get(ctx):
        key = (ctx.spec, ctx.domain, ctx.quad, ctx.n_modes)
        if key not in cache:
            quad = ctx.quad
            surf = interface_rule(ctx.domain, quad.n_s)
            vol = semicircle_rule(ctx.domain, quad.n_r, quad.n_phi)
            n = np.arange(1, ctx.n_modes + 1)
            psi = steklov_trace(n[:, None], ctx.domain, surf.nodes[None, :])
            cache[key] = (*kron_tables(ctx.spec, ctx.domain, vol, surf), psi, surf.weights)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def dense_coords():
    """The compressed basis Y (M x r) of a context as a dense matrix.

    Column k is the Kronecker product of the context's radial and angular
    eigenvectors at pairs[:, k], read at the members.
    """

    def get(ctx):
        i, j = ctx.pairs
        cols = i * ctx.angular_basis.shape[1] + j
        full = np.kron(ctx.radial_basis, ctx.angular_basis)
        return full[np.ix_(_member_index(ctx.spec), cols)]

    return get


@pytest.fixture(scope="session")
def compressed_traces():
    """(Y^T T, Y^T D) of a context, each r x Ks, from its factored interface
    tables: row k is the radial row i_k times the angular constant of pair k."""

    def get(ctx):
        i = ctx.pairs[0]
        return (ctx.radial_values[i] * ctx.value_consts[:, None],
                ctx.radial_derivs[i] * ctx.deriv_consts[:, None])

    return get


@pytest.fixture(scope="session")
def zero_trace_coords(compressed_traces):
    """Draws a random reduced vector a whose interface value a @ Y^T T vanishes.

    a lies in the left null space of the context's compressed traces Y^T T
    (``compressed_traces``): the left singular vectors whose singular value
    is at most 1e-13 times the largest.
    """

    def draw(ctx, rng):
        U, s, _ = np.linalg.svd(compressed_traces(ctx)[0])
        null = U[:, np.count_nonzero(s > 1e-13 * s[0]):]
        return null @ rng.normal(size=null.shape[1])

    return draw


@pytest.fixture(scope="session")
def converged(domain, context_for):
    """Factory for cached converged runs keyed by (method, label, size, tol)."""
    cache = {}
    seeds = mode_seeds(domain)

    def get(method: Method, label: str, size: int = 15, tol: float = 5e-5):
        key = (method, label, size, tol)
        if key not in cache:
            ctx = context_for(MODE_LABELS[label][0], size)
            cache[key] = iterate_mode(method, seeds[label], ctx, tol=tol)
        return cache[key]

    return get


def select_mode(previous_k_squared: float, values: np.ndarray) -> int:
    """Index of the positive eigenvalue nearest previous_k_squared, the dense
    reference for ``solver._nearest``.

    Ties break toward the smaller index; raises NoPositiveEigenvalue when
    the whole spectrum is non-positive.
    """
    positive = values > 0
    if not np.any(positive):
        raise NoPositiveEigenvalue("no positive eigenvalue to track")
    dist = np.where(positive, np.abs(values - previous_k_squared), np.inf)
    return int(np.argmin(dist))


def discontinuous_functional(a, gamma2, kappa, mixing, ctx) -> complex:
    """The paper's general discontinuous functional at a complex mixing m.

    The trial is Y a on the semicircle and sum gamma2_n psi_n(kappa) on the
    rectangle.  The two interface terms weight the value and derivative
    mismatches with m and its reality partner 1 - m*; for real fields the
    imaginary part cancels, so any residual imag is floating-point noise.
    Semicircle products come from the context's compressed tables at a:
    a^T G a, and a^T S a as (v1 | d1) - a^T (-S + C) a, since a^T C a is the
    interface product of the value v1 and normal derivative d1.  Rectangle
    ones come from the closed identities for a Helmholtz solution:
    <psi|psi> = sum c_n^2 b_n'/(2 kappa) and <psi|Lap psi> = -kappa^2 <psi|psi>.
    """
    v1, d1, v2, d2 = _surface_fields(ctx, a, gamma2, kappa)
    _, dbn = steklov_table(kappa, gamma2.size, ctx.domain)
    ws = ctx.surface_rule.weights
    norm2_ii = float(np.dot(gamma2 * gamma2, dbn)) / (2.0 * kappa)
    lap = float(np.dot(ws, v1 * d1)) - float(a @ ctx.dtn_base @ a) - kappa**2 * norm2_ii
    norm2 = float(a @ ctx.gram @ a) + norm2_ii
    G1, G2 = (float(np.dot(ws, d * (v1 - v2))) for d in (d1, d2))
    H1, H2 = (float(np.dot(ws, v * (d1 - d2))) for v in (v1, v2))
    m = complex(mixing)
    num = -lap - (np.conj(m) * G1 + (1.0 - np.conj(m)) * G2) + ((1.0 - m) * H1 + m * H2)
    return num / norm2


@pytest.fixture(scope="session")
def dense_fixed_point():
    """The fixed point kappa <- sqrt(F) over a dense solve of each assembled pencil.

    ``solve(pair)`` returns (values, vectors) like ``solver.solve_generalized``;
    the loop tracks with ``select_mode`` and stops by ``iterate_mode``'s rule,
    |k - kappa| < tol with the seed as estimate 0.  Returns (k, iterations,
    the tracked vector of the last pencil).
    """

    def run(solve, method, seed, ctx, tol):
        kappa, target = seed, seed**2
        for iterations in range(1, 21):
            values, vectors = solve(assemble(method, kappa, context=ctx))
            j = select_mode(target, values)
            target = values[j]
            k = float(np.sqrt(target))
            if abs(k - kappa) < tol:
                return k, iterations, vectors[:, j]
            kappa = k
        raise AssertionError(f"{method} from {seed} did not converge")

    return run


@pytest.fixture(scope="session")
def read_grid_csv():
    """Parses a CSV written by ``export_grid`` back into a FieldGrid."""

    def read(path):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        xs, ys = np.unique(data[:, 0]), np.unique(data[:, 1])
        return FieldGrid(xs=xs, ys=ys, values=data[:, 2].reshape(xs.size, ys.size))

    return read


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
