"""Periodic torus-grid surfaces for the benchmark.

An m x m grid of boundary components on the flat torus, each grid square cut
by its main diagonal into two hexagonal faces: n = m^2 components, 2n faces,
3n edges (one horizontal, one vertical and one diagonal edge per component),
so V - E + F = 0.  m >= 3 keeps the three corners of every face distinct.

Weight profiles: "eta0" (every weight 0), "eta15" (every weight 1.5) and
"mixed" (diagonal edges -0.5, grid edges 1).  Every face has one edge of each
class, so under "mixed" each face carries the weight triple (-0.5, 1, 1) in
some slot order, and every gamma equals 0.5 >= 0.
"""

from __future__ import annotations

PROFILES = {
    # (horizontal, vertical, diagonal) edge weights
    "eta0": (0.0, 0.0, 0.0),
    "eta15": (1.5, 1.5, 1.5),
    "mixed": (1.0, 1.0, -0.5),
}


def torus_grid(m: int, profile: str = "mixed") -> dict:
    """Surface dict in the `hexflow` JSON file format (see load_surface)."""
    if m < 3:
        raise ValueError(f"torus grid needs m >= 3, got {m}")
    eta_h, eta_v, eta_d = PROFILES[profile]
    n = m * m

    def v(i, j):
        return (i % m) * m + (j % m)

    # Edge ids: horizontal 3v, vertical 3v + 1, diagonal 3v + 2, keyed by the
    # component v = v(i, j) at the edge's lower-left end.
    edges = []
    for i in range(m):
        for j in range(m):
            a = v(i, j)
            edges.append({"id": 3 * a, "ends": [a, v(i, j + 1)], "eta": eta_h})
            edges.append({"id": 3 * a + 1, "ends": [a, v(i + 1, j)], "eta": eta_v})
            edges.append({"id": 3 * a + 2, "ends": [a, v(i + 1, j + 1)], "eta": eta_d})

    # Face slot t stores the edge opposite corner t.
    faces = []
    for i in range(m):
        for j in range(m):
            a = v(i, j)
            faces.append({
                "id": 2 * a,
                "corners": [a, v(i, j + 1), v(i + 1, j + 1)],
                "edges": [3 * v(i, j + 1) + 1, 3 * a + 2, 3 * a],
            })
            faces.append({
                "id": 2 * a + 1,
                "corners": [a, v(i + 1, j + 1), v(i + 1, j)],
                "edges": [3 * v(i + 1, j), 3 * a + 1, 3 * a + 2],
            })
    return {"n_boundary": n, "edges": edges, "faces": faces}
