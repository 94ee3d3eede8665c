"""Fixed reference job that run.py starts before and after every round.

    python3 perfbench/reference_job.py

Other tenants of a shared host change how fast the same code runs by 20%
and more over tens of seconds, which is wider than any useful bound.  This
job starts a fresh interpreter, imports NumPy and does a fixed amount of the
kind of work medwit does: frozen-dataclass construction with validation,
dict and tuple churn, 16x16 complex matrix products and a Hermitian
eigensolve.  It therefore slows down with the host, and run.py reports each
medwit invocation in units of the mean of the two jobs around its round.
The job does not import medwit, so no change to medwit can move it.
"""

from dataclasses import dataclass

import numpy as np

#: fixed amount of work; about 0.5 s of the job's 0.7 s on a 2-core shared Xeon
ITERATIONS = 15000


@dataclass(frozen=True)
class _Op:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))


def main() -> None:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    eye = np.eye(16, dtype=complex)
    acc = eye
    seen: dict[_Op, int] = {}
    for i in range(ITERATIONS):
        ops = tuple(_Op("A" if k % 2 else "B", (k % 4, (k + 1) % 4)) for k in range(8))
        seen[ops[i % 8]] = i
        acc = (m @ acc @ m.conj().T) * 1e-3 + eye
        if i % 20 == 0:
            np.linalg.eigvalsh(acc + acc.conj().T)


if __name__ == "__main__":
    main()
