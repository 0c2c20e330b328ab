"""Experiment F3 — Figure 3: exhaustive subspace exploration + structure.

The paper exhaustively explored a subspace of the MAC-attack hyperspace
(Gray-coded corruption mask x number of clients) and plots dark points where
PBFT's throughput drops below 500 req/s: "the subspace has both horizontal
and vertical structure: there are several clearly defined vertical lines and
they are clustered together on the horizontal axis."

The reproduction sweeps a contiguous window of the full 12-bit Gray-ordered
mask axis (a window where masks that touch every transmission round occur,
so all attack families — stalls, storms, crashes — appear), renders the
dark/light grid, and *quantifies* the structure:

- vertical-line consistency: darkness is determined by the mask, not the
  client count — this is the structure AVD's hill-climbing harvests
  (mutating the client count of a dark scenario keeps it dark);
- windowed dispersion vs a shuffled null: the dark columns' placement on
  the axis is strongly NON-random. In our simulator it comes out *periodic*
  (dispersion below the null): darkness follows the bit patterns that
  poison quorums, and those patterns recur with the Gray sequence's bit-flip
  periods. The paper's Emulab plot shows the clustered flavour of
  non-randomness; ours shows the regular flavour — both are the structure
  claim (scenario outcomes are far from independent across the axis), see
  EXPERIMENTS.md for the honest comparison.

The darkness threshold is a fraction of the benign baseline at the same
client count: the paper's absolute 500 req/s is ~1% of its Emulab baseline,
and any severe-impact cutoff exposes the same vertical lines.
"""

from repro.analysis import analyze_structure
from repro.core import CampaignSpec, ExhaustiveExploration, heatmap
from repro.core.hyperspace import ChoiceDimension, Hyperspace, IntRangeDimension
from repro.pbft import binary_to_gray
from repro.plugins import ClientCountPlugin, MacCorruptionPlugin
from repro.plugins.mac_corruption import MAC_MASK_DIMENSION
from repro.targets import PbftTarget

from _helpers import FULL, banner, campaign_config

#: Dark = tail throughput below this fraction of the benign baseline.
DARK_FRACTION = 0.25
#: Start of the swept window on the Gray-ordered axis (position, not mask).
#: The default window spans both dense dark-stripe regions and clean
#: regions of the axis (the pattern repeats every 1024 positions, so any
#: ``1024k + 2304`` start shows the same structure).
WINDOW_START = 0 if FULL else 2304
#: Window length.
WINDOW_LENGTH = 1024 if FULL else 256
#: Client counts (rows of the grid).
CLIENT_COUNTS = [20, 40, 60, 80, 100] if FULL else [20, 60]


def build_subspace_target():
    step = CLIENT_COUNTS[1] - CLIENT_COUNTS[0]
    plugins = [
        MacCorruptionPlugin(),
        ClientCountPlugin(min(CLIENT_COUNTS), max(CLIENT_COUNTS), step),
    ]
    target = PbftTarget(plugins, config=campaign_config())
    # The swept slice: actual mask values at Gray positions
    # WINDOW_START .. WINDOW_START+WINDOW_LENGTH, preserving axis adjacency.
    masks = [binary_to_gray(WINDOW_START + i) for i in range(WINDOW_LENGTH)]
    subspace = Hyperspace(
        [
            IntRangeDimension(
                "n_correct_clients", min(CLIENT_COUNTS), max(CLIENT_COUNTS), step
            ),
            ChoiceDimension(MAC_MASK_DIMENSION, masks),
            ChoiceDimension("n_malicious_clients", [1]),
        ]
    )
    return target, subspace


def run_figure3():
    target, subspace = build_subspace_target()
    exhaustive = ExhaustiveExploration(target, seed=3, hyperspace=subspace)
    results = exhaustive.run(CampaignSpec(budget=subspace.size))
    row_of = {count: index for index, count in enumerate(CLIENT_COUNTS)}
    grid = [[0.0] * WINDOW_LENGTH for _ in CLIENT_COUNTS]
    for result in results:
        row = row_of[result.params["n_correct_clients"]]
        column = result.scenario.coords[MAC_MASK_DIMENSION]
        grid[row][column] = result.measurement.tail_throughput_rps
    thresholds = [
        target.baseline(count).tail_throughput_rps * DARK_FRACTION
        for count in CLIENT_COUNTS
    ]
    dark = [
        [value < thresholds[row] for value in grid[row]] for row in range(len(grid))
    ]
    return target, grid, dark


def report(target, grid, dark):
    banner(
        "Figure 3 — exhaustively explored subspace (dark '#' = severe impact)",
        "clearly defined vertical lines (mask-determined darkness), "
        "clustered together along the Gray-coded axis",
    )
    print(f"Gray-axis window: positions {WINDOW_START}..{WINDOW_START + WINDOW_LENGTH - 1}\n")
    labels = [f"{count} clients" for count in CLIENT_COUNTS]
    print(heatmap([[0.0 if d else 1.0 for d in row] for row in dark],
                  row_labels=labels, threshold=0.5))
    stats = analyze_structure(dark, windows=8)
    print(
        f"\ndark density           : {stats.dark_density:.3f}\n"
        f"windowed dispersion    : {stats.windowed_dispersion:.2f} "
        f"(shuffled null: {stats.null_windowed_dispersion:.2f}) -> "
        f"clustering {stats.dispersion_ratio:.2f}x\n"
        f"P(neighbour dark|dark) : {stats.neighbor_dark_given_dark:.2f} "
        f"vs base rate {stats.dark_density:.2f}\n"
        f"vertical consistency   : {stats.column_consistency:.2f} "
        f"(fraction of mask columns dark/light at every client count)"
    )
    return stats


def test_figure3_structure(benchmark):
    target, grid, dark = benchmark.pedantic(run_figure3, rounds=1, iterations=1)
    stats = report(target, grid, dark)
    # The paper's claims, as they manifest here: dark points exist; their
    # placement on the Gray axis is strongly non-random (measured: periodic,
    # dispersion well below the shuffled null); and darkness is
    # mask-determined (near-perfect vertical lines).
    assert 0.02 < stats.dark_density < 0.9
    assert stats.column_consistency > 0.9
    assert stats.dispersion_ratio < 0.7 or stats.dispersion_ratio > 1.5


if __name__ == "__main__":
    report(*run_figure3())
