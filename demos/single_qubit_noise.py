"""Walk through the single-qubit story: how each noise channel splits the
extractable work, where bit flip starts helping, and the amplitude-damping
peak at the population branch point.

Run:  python demos/single_qubit_noise.py
"""

import numpy as np

from ergonoise import closed_form, sweep_single, threshold_q

BLOCHS = {
    "salmon": [0.6, 0.5, 0.4],
    "green": [0.4, 0.3, 0.6],
    "blue": [0.1, 0.5, 0.2],
}

print("=== bit-flip enhancement thresholds ===")
for name, n in BLOCHS.items():
    qb = threshold_q("bit_flip", n)
    if qb < 0:
        verdict = "every strength enhances"
    elif qb > 1:
        verdict = "no physical strength enhances"
    else:
        verdict = f"enhancement beyond q = {qb:.3f}"
    print(f"  n = {n} ({name:6s}): q_b = {qb:+.3f} -> {verdict}")

print("\n=== work split vs q, bit flip on n = (0.6, 0.5, 0.4) ===")
res = sweep_single("bit_flip", BLOCHS["salmon"], q_grid=np.linspace(0, 1, 11))
print("  q      W       WI      WC      C/2")
for i in range(len(res)):
    print(
        f"  {res.columns['q'][i]:.1f}  {res.columns['W'][i]:.4f}  "
        f"{res.columns['WI'][i]:.4f}  {res.columns['WC'][i]:.4f}  "
        f"{res.columns['C'][i] / 2:.4f}"
    )
print("  note: WC never exceeds C/2 and meets it once the n3 component dies")

print("\n=== amplitude damping peaks at z = |n3| / (1 + |n3|) ===")
n = [0.1, 0.3, -0.4]
qs = np.linspace(0, 1, 201)
wc = np.array([closed_form("amplitude_damping", q, n).coherent for q in qs])
z = abs(n[2]) / (1 + abs(n[2]))
print(f"  n = {n}: peak at q = {qs[wc.argmax()]:.3f}, branch point z = {z:.3f}")
print(f"  WC rises from {wc[0]:.4f} to {wc.max():.4f}, then dies: WC(1) = {wc[-1]:.1e}")

print("\n=== phase flip only helps against an x-aligned energy basis ===")
n = [0.4, 0.5, 0.6]
for basis in ("computational", "x"):
    wc = [closed_form("phase_flip", q, n, basis=basis).coherent for q in qs]
    trend = "grows" if wc[-1] > wc[0] else "decays"
    print(f"  basis {basis:13s}: WC(0) = {wc[0]:.4f}, WC(1) = {wc[-1]:.4f} ({trend})")
