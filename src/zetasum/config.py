"""Frozen numeric configuration shared across modules."""

# Terms per chunk for deterministic chunked summation.  Large enough to
# amortize reduction overhead, small enough that per-chunk error is
# negligible next to the compensated cross-chunk accumulation.
CHUNK_SIZE = 4096

# Every phase is f(m0) + (f(m) - f(m0)) in a block [m0, m0 + w) of the grid
# of phases._grid_passes: w <= m0 / ANCHOR_BLOCK_RATIO from m0 =
# ANCHOR_BLOCK_RATIO * CHUNK_SIZE on, and chunks below that are cut into such
# blocks only where |f| passes ANCHOR_THRESHOLD: a double below 2**16 is
# within 7.3e-12 of the phase it rounds, and larger ones lose proportionally more.
ANCHOR_BLOCK_RATIO = 16
ANCHOR_THRESHOLD = 2.0**16

# Width of the m-chunks and n-blocks the coupled double sums stream through:
# wide enough that per-block interpreter work stays small next to the term
# evaluations, small enough that a sum's working set is a few MB at any t.
STREAM_CHUNK = 16384

# Significant decimal digits carried by extended-precision (oracle) values.
EXTENDED_DPS = 36

# Minimum distance of eta from 2*pi*Z before alpha = 1 - exp(-i*eta)
# degenerates (|alpha| ~ 0.0998 at this distance).
ETA_DIST_EPS = 0.1

# Widest allowed |sigma| for weighted single sums; beyond this the weights
# m**(-sigma) risk overflow without any consumer needing them.
SIGMA_WINDOW = 2.0

# WORK_BUDGET caps the values a fast path forms, counted before it forms any
# (phases.check_work): kernel and cursor terms, outer weights, lag nodes, FFT
# points, prefixes.  An oracle term costs about 1000 times as much, and a
# brute-force grid's work grows as its side squared, so ORACLE_BUDGET counts
# oracle terms and BRUTE_FORCE_BUDGET caps a grid's side.
WORK_BUDGET = 10**8
ORACLE_BUDGET = 10**7
BRUTE_FORCE_BUDGET = 3 * 10**4
