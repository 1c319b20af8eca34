"""Unit tests for the experiment drivers (figure/claim reproductions)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    fig1_monotone_violations,
    run_feasibility_ablation,
    run_fig1_mrc_by_inversion,
    run_fig2_chainfind_ties,
    run_mahonian_partitions,
    run_matrix_reuse,
    run_miss_integral,
    run_ml_schedule,
    run_policy_ablation,
    run_policy_sweep,
    run_s11_ranked_labeling,
    run_sawtooth_cyclic,
    run_theorem2_random,
)
from repro.core import mahonian_row, max_inversions, partition_counts_at_level


class TestFig1:
    def test_structure_and_counts(self):
        result = run_fig1_mrc_by_inversion(4)
        assert result["levels"] == list(range(max_inversions(4) + 1))
        assert [result["counts"][k] for k in result["levels"]] == list(mahonian_row(4))
        assert all(len(curve) == 4 for curve in result["curves"].values())

    def test_separation_by_inversion_number(self):
        result = run_fig1_mrc_by_inversion(5)
        assert fig1_monotone_violations(result) == 0

    def test_extreme_levels_have_known_curves(self):
        result = run_fig1_mrc_by_inversion(5)
        assert result["curves"][0] == pytest.approx([1.0, 1.0, 1.0, 1.0, 0.5])
        assert result["curves"][max_inversions(5)] == pytest.approx([0.9, 0.8, 0.7, 0.6, 0.5])

    def test_retraversal_convention(self):
        result = run_fig1_mrc_by_inversion(4, convention="retraversal")
        assert result["curves"][0][-1] == pytest.approx(0.0)
        assert result["curves"][0][0] == pytest.approx(1.0)

    def test_max_cache_size_truncation(self):
        result = run_fig1_mrc_by_inversion(5, max_cache_size=3)
        assert result["cache_sizes"] == [1, 2, 3]


class TestFig2AndS11:
    def test_tie_counts_structure(self):
        rows = run_fig2_chainfind_ties((3, 4, 5))
        assert [r["m"] for r in rows] == [3, 4, 5]
        assert all(r["chain_length"] == max_inversions(r["m"]) for r in rows)

    def test_ties_nondecreasing_with_m(self):
        rows = run_fig2_chainfind_ties((3, 4, 5, 6, 7))
        ties = [r["arbitrary_choices"] for r in rows]
        assert all(b >= a for a, b in zip(ties, ties[1:]))
        assert ties[-1] > ties[0]

    def test_s11_example(self):
        result = run_s11_ranked_labeling(8)  # smaller m for test speed; same structure
        assert result["chain_length"] == max_inversions(8)
        assert result["lambda_e"]["reaches_top"]
        assert result["lambda_psi"]["reaches_top"]
        # both labelings still face arbitrary choices (the paper's point)
        assert result["lambda_e"]["arbitrary_choices"] > 0
        assert result["lambda_psi"]["arbitrary_choices"] > 0


class TestCanonicalAndTheorem2:
    def test_sawtooth_cyclic_rows(self):
        rows = run_sawtooth_cyclic((4, 8))
        assert rows[0]["sawtooth_hits_first4"] == [1, 2, 3, 4]
        assert rows[0]["cyclic_hits_below_m"] == 0
        assert rows[0]["sawtooth_total_reuse"] == 10
        assert rows[1]["cyclic_total_reuse"] == 64

    def test_theorem2_random_has_zero_deviation(self):
        rows = run_theorem2_random((16, 64), trials=3, rng=1)
        assert all(row["max_deviation"] == 0 for row in rows)

    def test_matrix_reuse_matches_paper_formulas(self):
        rows = run_matrix_reuse(((4, 8), (16, 16)))
        for row in rows:
            assert row["cyclic_total_reuse"] == row["paper_cyclic_formula"]
            assert row["sawtooth_total_reuse"] == row["paper_sawtooth_formula"]
            assert 1.0 < row["savings_ratio"] <= 2.0


class TestAppendix:
    def test_mahonian_partitions(self):
        result = run_mahonian_partitions(5)
        assert result["mahonian_row"] == list(mahonian_row(5))
        for level in result["levels"]:
            assert level["permutations_enumerated"] == level["mahonian"]
            assert level["all_hit_vectors_are_partitions"]

    @pytest.mark.parametrize("m", range(8))
    def test_mahonian_partitions_match_per_level_enumeration(self, m):
        # The driver sweeps S_m once; each level's partition counts agree with
        # enumerating that level's permutations on their own.
        levels = run_mahonian_partitions(m)["levels"]
        assert [level["inversions"] for level in levels] == list(range(max_inversions(m) + 1))
        for level in levels:
            counts = partition_counts_at_level(m, level["inversions"])
            assert level["permutations_enumerated"] == sum(counts.values()) == level["mahonian"]
            assert level["distinct_hit_vectors"] == len(counts)

    def test_miss_integral_slope(self):
        result = run_miss_integral(5)
        assert result["per_inversion_drop"] == pytest.approx(result["expected_drop"])
        for row in result["rows"]:
            assert row["integral_spread"] < 1e-9
            assert row["integral_mean"] == pytest.approx(row["closed_form"])


class TestAblations:
    def test_policy_ablation_lru_monotone(self):
        rows = run_policy_ablation(32, levels=(0.0, 0.5, 1.0), trials=2, rng=0)
        lru = [row["lru"] for row in rows]
        assert all(b <= a + 1e-9 for a, b in zip(lru, lru[1:]))
        # the extremes are the paper's closed forms (full-trace convention)
        assert lru[0] == pytest.approx(1.0)
        assert lru[-1] < 1.0

    def test_policy_ablation_opt_lower_bound(self):
        rows = run_policy_ablation(32, levels=(0.0, 1.0), trials=2, rng=0)
        for row in rows:
            assert row["opt"] <= row["lru"] + 1e-9

    def test_feasibility_ablation_bounds(self):
        rows = run_feasibility_ablation(10, edge_probabilities=(0.0, 0.5, 1.0), trials=2, rng=0)
        assert rows[0]["exact_norm_inversions"] == pytest.approx(1.0)
        assert rows[-1]["exact_norm_inversions"] == pytest.approx(0.0)
        for row in rows:
            assert row["greedy_norm_inversions"] <= row["exact_norm_inversions"] + 1e-9
            assert row["random_norm_inversions"] <= row["exact_norm_inversions"] + 1e-9

    def test_policy_sweep_matrix(self):
        result = run_policy_sweep(8000, 512, exponent=0.9, ways=4, rng=3)
        rows = result["rows"]
        assert [row["capacity"] for row in rows] == [4, 8, 16, 32, 64, 128, 256, 512]
        for row in rows:
            for policy in ("lru", "fifo", "random", "set_associative"):
                assert 0.0 <= row[policy] <= 1.0
        # LRU miss ratios fall monotonically with capacity (stack inclusion)
        lru = [row["lru"] for row in rows]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(lru, lru[1:]))
        # a fully-associative grid point can only beat its 4-way counterpart
        for row in rows:
            assert row["lru"] <= row["set_associative"] + 0.05
        assert set(result["kernel_seconds"]) == {"lru", "fifo", "random", "set-associative"}

    def test_ml_schedule_sawtooth_wins(self):
        result = run_ml_schedule(items=64, passes=4)
        by_name = {row["schedule"]: row for row in result["rows"]}
        assert by_name["sawtooth"]["total_reuse"] < by_name["cyclic"]["total_reuse"]
        assert by_name["sawtooth"]["amat"] < by_name["cyclic"]["amat"]
        assert by_name["sawtooth"]["miss_ratio@0.50m"] < by_name["cyclic"]["miss_ratio@0.50m"]
