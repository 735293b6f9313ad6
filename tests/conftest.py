import os
import subprocess
import sys

import numpy as np
import pytest

import wotsim
from wotsim.catalog import (
    _CKS_BLOCKS,
    _CKS_FACTORS,
    _CKS_PAIRS,
    _CKS_POS,
    _assemble,
    _householder,
    build_cks,
)
from wotsim.protocol import ProtocolSpec, Round
from wotsim.qcore import (
    ALICE,
    BOB,
    BOB_INPUT,
    MESSAGE,
    Factor,
    RegisterLayout,
    TwoOutcomeMeasurement,
    haar_unitary,
)
from wotsim.verification import run_all

# Tests start ``python -m wotsim`` in child processes: they import the package
# this process imported, also when pytest's pythonpath setting found it.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(wotsim.__file__)), os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(2013)


@pytest.fixture
def qr_shapes(monkeypatch):
    """The shape of the operand of every ``np.linalg.qr`` call the test makes."""
    shapes = []

    def counted(a, *args, _orig=np.linalg.qr, **kwargs):
        shapes.append(np.shape(a))
        return _orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return shapes


# verify --seed 7 is the slowest command the tests run: one in-process run
# and one process, each shared by the tests that read it
@pytest.fixture(scope="session")
def verify_seed_7():
    """``run_all(7)`` in this process: (report lines, all passed)."""
    return run_all(7)


@pytest.fixture(scope="session")
def verify_seed_7_process():
    """``python -m wotsim verify --seed 7`` in a fresh process: (exit code,
    stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "wotsim", "verify", "--seed", "7"],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def build_cks_with_bob_register(dim: int = 2) -> ProtocolSpec:
    """The qutrit protocol with a Bob-held register of the given dim
    recording x0 + x1 (mod dim); with a qubit, x0 xor x1.

    Alice's view is unchanged (the register stays in a basis state), so all
    bounds match the plain qutrit protocol, but Bob ends the protocol
    holding a register entangled with his inputs in the purified run.
    This exercises the nontrivial Uhlmann-block machinery.  With dim 16
    Alice's reduced states have 9 x 16 amplitude matrices, wider than tall.
    """
    shifts = np.array([[np.roll(np.eye(dim), x0 + x1, axis=0) for x1 in (0, 1)] for x0 in (0, 1)])
    return _cks_with_register("cks-with-bob-register" + ("" if dim == 2 else f"-{dim}"), shifts)


def build_cks_with_complex_register(seed: int = 0) -> ProtocolSpec:
    """The qutrit protocol with a Bob-held qubit that Bob rotates by a
    seeded complex SU(2) matrix ``V[x0, x1]`` controlled on his inputs.

    Alice's view is that of the plain qutrit protocol, but the Uhlmann
    blocks of the purified attack have imaginary parts, so a conjugation
    slip in the realignment changes Bob's success.
    """
    rots = haar_unitary(2, np.random.default_rng(seed), (2, 2))
    rots = rots / np.sqrt(np.linalg.det(rots))[..., None, None]
    return _cks_with_register(f"cks-with-complex-register-{seed}", rots)


def _cks_with_register(name: str, blocks: np.ndarray) -> ProtocolSpec:
    """The qutrit protocol plus a Bob factor ``B`` on which Bob applies
    ``blocks[x0, x1]`` beside the cks phases on the message."""
    dim = blocks.shape[-1]
    # Bob holds (M, B): the cks phases on M and blocks[x0, x1] on B
    bob = _CKS_BLOCKS[..., :, None, :, None] * blocks[..., None, :, None, :]
    return _assemble(name, _CKS_FACTORS + (Factor("B", dim, BOB),), _householder(_CKS_PAIRS),
                     bob.reshape(2, 2, 3 * dim, 3 * dim), _CKS_POS)


def family_of(specs, name: str = "family") -> ProtocolSpec:
    """One family spec from specs with one layout and round schedule: a
    matrix equal in every member is shared, any other is stacked."""
    def merged(mats):
        mats = [np.asarray(m) for m in mats]
        return mats[0] if all(np.array_equal(m, mats[0]) for m in mats) else np.stack(mats)

    first = specs[0]
    return ProtocolSpec(
        name=name,
        layout=first.layout,
        alice_prep=tuple(merged([s.alice_prep[a] for s in specs]) for a in (0, 1)),
        rounds=tuple(Round(r.actor, merged([s.rounds[i].unitary for s in specs]), r.send)
                     for i, r in enumerate(first.rounds)),
        alice_output=tuple(
            TwoOutcomeMeasurement(merged([s.alice_output[a].pos for s in specs]),
                                  merged([s.alice_output[a].neg for s in specs]))
            for a in (0, 1)),
    )


def build_incomplete_protocol() -> ProtocolSpec:
    """A structurally valid protocol that transfers no information: Bob's
    round is the identity for every input, so completeness fails."""
    return _assemble("no-information", _CKS_FACTORS, _householder(_CKS_PAIRS),
                     np.broadcast_to(np.eye(3), (2, 2, 3, 3)), _CKS_POS)


def build_cks_shuffled() -> ProtocolSpec:
    """The qutrit protocol with the registers shuffled: input registers
    first and last, message in the middle."""
    layout = RegisterLayout((
        Factor("X0", 2, BOB_INPUT),
        Factor("A", 3, ALICE),
        Factor("M", 3, MESSAGE),
        Factor("X1", 2, BOB_INPUT),
    ))
    # Bob's held order is now (X0, M, X1); rebuild his phase diagonal
    phases = np.ones((2, 3, 2))
    phases[1, 0, :] = -1.0
    phases[:, 1, 1] = -1.0
    base = build_cks()
    return ProtocolSpec(
        name="cks-shuffled",
        layout=layout,
        alice_prep=base.alice_prep,
        rounds=(Round(ALICE, np.eye(9, dtype=complex), send=True),
                Round(BOB, np.diag(phases.reshape(-1)).astype(complex), send=True)),
        alice_output=base.alice_output,
    )


def build_two_register_trivial() -> ProtocolSpec:
    """Bob copies x0 and x1 into two separate message qubits."""
    # Bob holds (M0, M1): |m0, m1> -> |m0 + x0, m1 + x1>
    flips = [np.roll(np.eye(2), x, axis=0) for x in (0, 1)]
    blocks = np.array([[np.kron(flips[x0], flips[x1]) for x1 in (0, 1)] for x0 in (0, 1)])
    # Alice's outcome 1 reads M0 for a = 0, M1 for a = 1, on (A, M0, M1)
    one = np.diag([0.0, 1.0])
    pos = np.array([np.kron(np.eye(2), np.kron(one, np.eye(2))),
                    np.kron(np.eye(4), one)])
    return _assemble("two-register-trivial",
                     (Factor("A", 2, ALICE), Factor("M0", 2, MESSAGE), Factor("M1", 2, MESSAGE)),
                     np.broadcast_to(np.eye(8), (2, 8, 8)), blocks, pos)
