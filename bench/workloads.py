"""The benchmark's workloads: ordered lists of (check_id, params) entries.

Each workload is a closed loop: one caller runs run_check(check_id,
params, seed) for each entry after the previous one returns.  The seed
is the workload seed given on the command line; it only changes the
inputs of sampled checks, since exhaustive checks ignore it.

Why each workload exists:

- desk: the 62 full-desk manifest entries, in manifest order (frozen
  here so that a later manifest change does not silently change the
  work timed).  The behaviour contract and what users run.
- search: exhaustive family searches just past desk scale over small
  table fields, where subset enumeration (is_r_independent, gda_profile,
  is_regular, minimal_supports) dominates and field ops are cheap.
- bigfield: sampled checks over fields at and above the 64-element table
  limit, where digit-polynomial field arithmetic dominates and F65536
  construction dominates set-up.  No subset search.
- rational: the linalg and polyalgebra layers on Fraction values, so a
  core specialised to integer indices must show no loss here.

Sampled trials that draw random subspace dimensions cost more or less
depending on the draw, so the pass time of a workload made of a few such
trials follows the seed more than the code.  bigfield therefore leans on
trials of fixed cost (RHO, L6_4 over F243 and F65536), gives the
variable-cost checks enough trials to average out, and runs L2_4 over
F257 only: over F243 one L2_4 trial spans either 1 or 244 images, which
alone moved the pass time by about 15% from seed to seed.  Over 12 seeds
the field-op work of a bigfield pass varies by about 2.5% (CV).
"""

DESK = (
    [("T1_1", {"field": f"F{q}", "n": n, "d": d})
     for q in (2, 3, 4, 5) for n in (2, 3) for d in (2, 3)]
    + [
        ("T1_1_SHARP", {"field": "F3", "n": 3, "d": 2}),
        ("T1_1_SHARP", {"field": "F4", "n": 2, "d": 3}),
        ("T1_2", {"field": "F2", "k": 2, "d": 2, "e": 1}),
        ("T1_2", {"field": "F3", "k": 2, "d": 2, "e": 1}),
        ("T2_3", {"field": "F2", "k": 2, "d": 2}),
        ("L2_4", {"field": "F3", "n": 3, "d": 2, "trials": 40}),
        ("RHO", {"field": "F2", "n": 3, "d": 2}),
        ("RHO", {"field": "F5", "n": 2, "d": 3, "trials": 100}),
        ("ITERATE", {"field": "F2", "n": 2, "d": 2, "e": 2}),
        ("ITERATE", {"field": "F3", "n": 2, "d": 2, "e": 2}),
        ("SIGMA", {"field": "F5", "n": 2, "d": 2}),
        ("SIGMA", {"field": "Q", "n": 2, "d": 3}),
        ("T1_3", {"field": "F5", "n": 2, "d": 2}),
        ("T1_3", {"field": "Q", "n": 2, "d": 2, "trials": 60}),
        ("T3_3", {"field": "F11", "n": 2, "d": 4, "r": 3}),
        ("T3_4", {"field": "F8", "n": 2, "d": 3}),
        ("T1_4", {"field": "F3", "k": 2, "d": 2, "r": 2, "e": 1}),
        ("L4", {"field": "F3", "n": 3, "d": 2, "r": 2, "trials": 40}),
        ("P5_2", {"field": "F2", "n": 4, "d": 2, "trials": 30}),
        ("P5_2", {"field": "F3", "n": 4, "d": 3, "trials": 10}),
        ("C5_3", {"field": "F2", "n": 4, "d": 2, "trials": 200}),
        ("C5_3", {"field": "F2", "n": 4, "d": 3, "trials": 200}),
        ("C5_3", {"field": "F3", "n": 4, "d": 2, "trials": 200}),
        ("C5_3", {"field": "F3", "n": 4, "d": 3, "trials": 200}),
        ("P5_4", {"field": "F2", "d": 2, "r": 2, "s": 2}),
        ("P5_4", {"field": "F3", "d": 2, "r": 2, "s": 2}),
        ("T5_1", {"field": "F3", "k": 2, "d": 2, "r": 2}),
        ("T6_1", {"field": "F2", "n": 3, "d": 3}),
        ("T6_1", {"field": "F3", "n": 3, "d": 2}),
        ("EQ_GDA", {"field": "F2", "n": 3, "d": 3}),
        ("P6_2", {"field": "F2", "n": 3, "d": 2}),
        ("P6_2", {"field": "F2", "n": 3, "d": 3}),
        ("P6_2", {"field": "F2", "n": 3, "d": 4}),
        ("P6_2", {"field": "F2", "n": 2, "d": 2}),
        ("P6_2", {"field": "F2", "n": 2, "d": 3}),
        ("T6_IK", {"field": "F2", "n": 2, "d": 4, "k": 2}),
        ("L6_4", {"field": "F2", "n": 4, "k": 2, "trials": 20}),
        ("L6_4", {"field": "F3", "n": 4, "k": 2, "trials": 20}),
        ("L6_5", {"field": "F2", "k": 2}),
        ("L6_5", {"field": "F3", "k": 2}),
        ("P6_6", {"field": "F2", "k": 2}),
        ("P6_6", {"field": "F3", "k": 2}),
        ("EX10", {"field": "F2"}),
        ("DERIVED_GDA", {"field": "F2", "n": 3, "d": 2}),
        ("EXPLORE_SPREAD_R", {"field": "F2", "k": 2, "d": 2}),
        ("VCODE", {"field": "F3", "n": 3, "d": 2, "wmax": 6}),
    ]
)

SEARCH = [
    ("T1_1", {"field": "F7", "n": 3, "d": 2}),
    ("T1_1", {"field": "F8", "n": 3, "d": 2}),
    ("T1_1", {"field": "F32", "n": 2, "d": 3}),
    ("T1_1", {"field": "F4", "n": 4, "d": 2}),
    ("T6_1", {"field": "F3", "n": 3, "d": 3}),
    ("T6_1", {"field": "F4", "n": 3, "d": 2}),
    ("P6_2", {"field": "F3", "n": 3, "d": 3}),
    ("VCODE", {"field": "F4", "n": 3, "d": 2, "wmax": 5}),
    ("EXPLORE_SPREAD_R", {"field": "F3", "k": 2, "d": 2}),
]

BIGFIELD = [
    ("C5_3", {"field": "F64", "n": 4, "d": 2, "trials": 60}),
    ("C5_3", {"field": "F128", "n": 4, "d": 2, "trials": 20}),
    ("C5_3", {"field": "F243", "n": 4, "d": 2, "trials": 20}),
    ("C5_3", {"field": "F65536", "n": 3, "d": 2, "trials": 20}),
    ("L2_4", {"field": "F257", "n": 3, "d": 2, "trials": 40}),
    ("RHO", {"field": "F243", "n": 2, "d": 3, "trials": 50}),
    ("RHO", {"field": "F65536", "n": 2, "d": 3, "trials": 40}),
    ("P5_2", {"field": "F128", "n": 4, "d": 2, "trials": 5}),
    ("L4", {"field": "F257", "n": 3, "d": 2, "r": 2}),
    ("L6_4", {"field": "F65536", "n": 4, "k": 2, "trials": 60}),
]

RATIONAL = [
    ("C5_3", {"field": "Q", "n": 4, "d": 2, "trials": 150}),
    ("C5_3", {"field": "Q", "n": 3, "d": 3, "trials": 100}),
    ("L2_4", {"field": "Q", "trials": 40}),
    ("RHO", {"field": "Q", "n": 3, "d": 2, "trials": 150}),
    ("P5_2", {"field": "Q", "n": 4, "d": 2, "trials": 30}),
    ("L4", {"field": "Q", "trials": 80}),
    ("SIGMA", {"field": "Q", "n": 3, "d": 3, "trials": 200}),
    ("T1_3", {"field": "Q", "n": 3, "d": 3, "trials": 200}),
    ("L6_4", {"field": "Q", "n": 4, "k": 2, "trials": 100}),
]

WORKLOADS = {
    "desk": DESK,
    "search": SEARCH,
    "bigfield": BIGFIELD,
    "rational": RATIONAL,
}

def fields_of(entries) -> list[str]:
    """The distinct field names the entries give, in first-use order."""
    out: list[str] = []
    for _, params in entries:
        name = params.get("field")
        if name is not None and name not in out:
            out.append(name)
    return out
