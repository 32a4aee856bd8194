#include "analysis/ld_prefilter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "ga/window_scan.hpp"
#include "genomics/genotype_matrix.hpp"
#include "genomics/ld.hpp"
#include "genomics/packed_genotype.hpp"
#include "test_support.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace ldga::analysis {
namespace {

using genomics::Genotype;
using genomics::PackedGenotypeMatrix;
using genomics::PairLd;

/// Builds a packed store from dosage columns (0/1/2; 3 = missing).
PackedGenotypeMatrix store_from_columns(
    const std::vector<std::vector<int>>& columns) {
  const auto individuals = static_cast<std::uint32_t>(columns.front().size());
  const auto snps = static_cast<std::uint32_t>(columns.size());
  genomics::GenotypeMatrix matrix(individuals, snps);
  for (std::uint32_t s = 0; s < snps; ++s) {
    for (std::uint32_t i = 0; i < individuals; ++i) {
      matrix.set(i, s, static_cast<Genotype>(columns[s][i]));
    }
  }
  return PackedGenotypeMatrix(matrix);
}

// A balanced polymorphic column: four of each dosage.
const std::vector<int> kColA{0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2};
// Its dosage complement (perfect negative correlation).
const std::vector<int> kColFlip{2, 2, 2, 1, 1, 1, 0, 0, 0, 2, 1, 0};
// Monomorphic in dosage (every individual heterozygous).
const std::vector<int> kColMono{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
// Uncorrelated-ish shuffle of kColA.
const std::vector<int> kColShuffled{1, 2, 0, 2, 0, 1, 1, 0, 2, 2, 1, 0};

TEST(LdPrefilter, PerfectlyCorrelatedPairScoresFullLd) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColA});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_NEAR(ld.r2, 1.0, 1e-12);
  EXPECT_NEAR(ld.d_prime, 1.0, 1e-12);
  // cov = var = 2/3 for the balanced column, so D = cov/2 = 1/3.
  EXPECT_NEAR(ld.d, 1.0 / 3.0, 1e-12);
}

TEST(LdPrefilter, AnticorrelatedPairScoresFullLdWithNegativeD) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColFlip});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_NEAR(ld.r2, 1.0, 1e-12);
  EXPECT_NEAR(ld.d_prime, 1.0, 1e-12);
  EXPECT_LT(ld.d, 0.0);
}

TEST(LdPrefilter, MonomorphicLocusScoresZero) {
  const PackedGenotypeMatrix store = store_from_columns({kColA, kColMono});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_EQ(ld.r2, 0.0);
  EXPECT_EQ(ld.d_prime, 0.0);
  EXPECT_EQ(ld.d, 0.0);
}

TEST(LdPrefilter, MissingGenotypesAreExcludedPairwise) {
  // Column B with the first three individuals untyped: the pair must be
  // scored over the remaining nine only.
  std::vector<int> with_missing = kColShuffled;
  with_missing[0] = with_missing[1] = with_missing[2] = 3;
  const PackedGenotypeMatrix store =
      store_from_columns({kColA, with_missing});

  const std::vector<int> a_reduced(kColA.begin() + 3, kColA.end());
  const std::vector<int> b_reduced(kColShuffled.begin() + 3,
                                   kColShuffled.end());
  const PackedGenotypeMatrix reduced =
      store_from_columns({a_reduced, b_reduced});

  const PairLd full = composite_pair_ld(store, 0, 1);
  const PairLd sub = composite_pair_ld(reduced, 0, 1);
  EXPECT_DOUBLE_EQ(full.r2, sub.r2);
  EXPECT_DOUBLE_EQ(full.d, sub.d);
  EXPECT_DOUBLE_EQ(full.d_prime, sub.d_prime);
}

TEST(LdPrefilter, FewerThanTwoJointlyTypedScoresZero) {
  // Complementary missingness: no individual is typed at both loci.
  std::vector<int> first_half = kColA;
  std::vector<int> second_half = kColA;
  for (std::size_t i = 0; i < kColA.size(); ++i) {
    if (i < 6) first_half[i] = 3;
    if (i >= 6) second_half[i] = 3;
  }
  const PackedGenotypeMatrix store =
      store_from_columns({first_half, second_half});
  const PairLd ld = composite_pair_ld(store, 0, 1);
  EXPECT_EQ(ld.r2, 0.0);
  EXPECT_EQ(ld.d, 0.0);
}

TEST(LdPrefilter, WindowSummaryCountsPairsAndStrongPairs) {
  const PackedGenotypeMatrix store =
      store_from_columns({kColA, kColA, kColMono});
  const std::vector<ga::WindowSpec> windows{{0, 3}};
  const std::vector<WindowScore> scores = score_windows(store, windows);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].pairs, 3u);           // (0,1) (0,2) (1,2)
  EXPECT_EQ(scores[0].strong_pairs, 1u);    // only the (0,1) r² = 1 pair
  EXPECT_NEAR(scores[0].max_r2, 1.0, 1e-12);
  EXPECT_NEAR(scores[0].mean_r2, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(scores[0].score, scores[0].mean_r2);
}

/// A panel with real LD structure: each SNP copies its left
/// neighbour's dosage per individual with probability 0.7, and
/// otherwise draws afresh. `missing_rate` sprinkles missing calls;
/// SNP 4 is monomorphic and, with missing calls on, SNP 9 is untyped
/// for everyone but two individuals.
PackedGenotypeMatrix linked_panel(std::uint32_t individuals,
                                  std::uint32_t snps, double missing_rate,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> columns(snps, std::vector<int>(individuals));
  for (std::uint32_t s = 0; s < snps; ++s) {
    for (std::uint32_t i = 0; i < individuals; ++i) {
      int dosage = static_cast<int>(rng.below(3));
      if (s > 0 && rng.bernoulli(0.7) && columns[s - 1][i] != 3) {
        dosage = columns[s - 1][i];
      }
      if (s == 4) dosage = 1;
      if (missing_rate > 0.0 && (rng.bernoulli(missing_rate) ||
                                 (s == 9 && i >= 2))) {
        dosage = 3;
      }
      columns[s][i] = dosage;
    }
  }
  return store_from_columns(columns);
}

/// The sweep's contract, restated on the per-pair oracle: every pair
/// (a < b) in ascending (a, b) order, summed left to right.
WindowScore oracle_score(const PackedGenotypeMatrix& store,
                         const ga::WindowSpec& window, double strong_r2) {
  WindowScore score;
  score.window = window;
  double sum_r2 = 0.0;
  double sum_dprime = 0.0;
  for (std::uint32_t a = 0; a < window.count; ++a) {
    for (std::uint32_t b = a + 1; b < window.count; ++b) {
      const PairLd ld =
          composite_pair_ld(store, window.begin + a, window.begin + b);
      ++score.pairs;
      sum_r2 += ld.r2;
      sum_dprime += ld.d_prime;
      score.max_r2 = std::max(score.max_r2, ld.r2);
      if (ld.r2 >= strong_r2) ++score.strong_pairs;
    }
  }
  if (score.pairs > 0) {
    score.mean_r2 = sum_r2 / static_cast<double>(score.pairs);
    score.mean_abs_d_prime = sum_dprime / static_cast<double>(score.pairs);
  }
  score.score = score.mean_r2;
  return score;
}

void expect_identical(const WindowScore& got, const WindowScore& want) {
  EXPECT_EQ(got.window.begin, want.window.begin);
  EXPECT_EQ(got.window.count, want.window.count);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.strong_pairs, want.strong_pairs);
  // Bit-identical, not merely close: EXPECT_EQ on the doubles.
  EXPECT_EQ(got.max_r2, want.max_r2);
  EXPECT_EQ(got.mean_r2, want.mean_r2);
  EXPECT_EQ(got.mean_abs_d_prime, want.mean_abs_d_prime);
  EXPECT_EQ(got.score, want.score);
}

TEST(LdPrefilter, WindowSizeSweepMatchesPairOracle) {
  // Window sizes around the 64-SNP vector/stride edges and one wide
  // window, over cohorts with a partial last word, with and without
  // missing calls, at 1, 2 and 4 scoring threads.
  const std::vector<ga::WindowSpec> windows{{0, 1},  {5, 2},  {0, 63},
                                            {1, 64}, {7, 65}, {3, 300}};
  for (const std::uint32_t individuals : {130u, 64u}) {
    for (const double missing_rate : {0.0, 0.03}) {
      const PackedGenotypeMatrix store =
          linked_panel(individuals, 310, missing_rate, 17 + individuals);
      std::vector<WindowScore> expected;
      for (const auto& window : windows) {
        expected.push_back(oracle_score(store, window, 0.2));
      }
      for (const std::uint32_t workers : {1u, 2u, 4u}) {
        LdPrefilterConfig config;
        config.workers = workers;
        const auto scores = score_windows(store, windows, config);
        ASSERT_EQ(scores.size(), windows.size());
        for (std::size_t w = 0; w < windows.size(); ++w) {
          SCOPED_TRACE(::testing::Message()
                       << "individuals=" << individuals << " missing="
                       << missing_rate << " workers=" << workers
                       << " window=" << windows[w].count);
          expect_identical(scores[w], expected[w]);
        }
      }
    }
  }
}

TEST(LdPrefilter, SweepMatchesPairOracleAtEveryDispatchLevel) {
  const PackedGenotypeMatrix store = linked_panel(200, 90, 0.02, 5);
  const std::vector<ga::WindowSpec> windows = ga::plan_windows(90, 64, 13);
  std::vector<WindowScore> expected;
  for (const auto& window : windows) {
    expected.push_back(oracle_score(store, window, 0.2));
  }
  for (const util::SimdLevel level : util::simd_available_levels()) {
    util::simd_force_level(level);
    const auto scores = score_windows(store, windows);
    ASSERT_EQ(scores.size(), windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
      SCOPED_TRACE(util::simd_level_name(level));
      expect_identical(scores[w], expected[w]);
    }
  }
  util::simd_force_level(std::nullopt);
}

TEST(LdPrefilter, ThreadCountDoesNotChangeScores) {
  // Each window is summed by one thread in fixed pair order and
  // emitted in window order, so the worker count must not move a
  // single bit. Enough windows that every worker claims several.
  const PackedGenotypeMatrix store = linked_panel(150, 400, 0.01, 7);
  const std::vector<ga::WindowSpec> windows = ga::plan_windows(400, 24, 5);

  const auto reference = score_windows(store, windows);  // 1 worker
  for (const std::uint32_t workers : {2u, 3u, 7u}) {
    LdPrefilterConfig parallel;
    parallel.workers = workers;
    const auto scored = score_windows(store, windows, parallel);
    ASSERT_EQ(scored.size(), reference.size());
    for (std::size_t w = 0; w < reference.size(); ++w) {
      expect_identical(scored[w], reference[w]);
    }
  }
}

TEST(LdPrefilter, RanksLdBlockAboveNoiseWindow) {
  // Window [0, 4): four copies of one column — a perfect LD block.
  // Window [4, 8): shuffles with little mutual correlation.
  const PackedGenotypeMatrix store = store_from_columns(
      {kColA, kColA, kColA, kColA,
       kColShuffled,
       {2, 0, 1, 0, 2, 1, 0, 1, 2, 0, 2, 1},
       {0, 1, 2, 2, 1, 0, 2, 0, 1, 1, 0, 2},
       {1, 0, 2, 1, 2, 0, 0, 2, 1, 2, 1, 0}});
  const std::vector<ga::WindowSpec> windows{{0, 4}, {4, 4}};
  const std::vector<WindowScore> scores = score_windows(store, windows);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0].score, scores[1].score);
  EXPECT_NEAR(scores[0].mean_r2, 1.0, 1e-12);

  const std::vector<ga::WindowSpec> kept = top_windows(scores, 1);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[0].count, 4u);
}

TEST(LdPrefilter, TopWindowsResortGenomicallyAndBreakTiesEarly) {
  std::vector<WindowScore> scores(3);
  scores[0].window = {0, 10};
  scores[0].score = 0.1;
  scores[1].window = {10, 10};
  scores[1].score = 0.9;
  scores[2].window = {20, 10};
  scores[2].score = 0.1;  // ties with window 0 — earlier begin wins

  const auto kept = top_windows(scores, 2);
  ASSERT_EQ(kept.size(), 2u);
  // Highest (begin 10) plus the tie-winner (begin 0), genomic order.
  EXPECT_EQ(kept[0].begin, 0u);
  EXPECT_EQ(kept[1].begin, 10u);

  const auto all = top_windows(scores, 99);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].begin, 0u);
  EXPECT_EQ(all[2].begin, 20u);
}

TEST(LdPrefilter, StreamingSweepEmitsBatchScoresInOrder) {
  const genomics::Dataset dataset =
      ldga::testing::small_synthetic(30, 2, 7).dataset;
  const PackedGenotypeMatrix store(dataset.genotypes());
  const std::vector<ga::WindowSpec> windows = ga::plan_windows(30, 12, 6);

  LdPrefilterConfig config;
  config.workers = 3;  // the shared pool must not change a bit either
  const auto batch = score_windows(store, windows, config);
  std::vector<WindowScore> streamed;
  score_windows_streaming(store, windows, config,
                          [&](const WindowScore& score) {
                            streamed.push_back(score);
                          });
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t w = 0; w < batch.size(); ++w) {
    EXPECT_EQ(streamed[w].window.begin, batch[w].window.begin);
    EXPECT_EQ(streamed[w].score, batch[w].score);
    EXPECT_EQ(streamed[w].pairs, batch[w].pairs);
    EXPECT_EQ(streamed[w].max_r2, batch[w].max_r2);
  }
}

/// Synthetic rankings for the admission logic: scores only, no store.
std::vector<WindowScore> ranking_fixture() {
  // Includes ties (0.5 twice) and a ceiling score to stress the
  // tie-break and bound reasoning.
  const std::vector<double> values{0.1, 0.5, 0.9, 0.5,  1.0, 0.0,
                                   0.3, 0.7, 0.2, 0.45, 0.5, 0.65};
  std::vector<WindowScore> scores(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    scores[i].window = {static_cast<genomics::SnpIndex>(i * 10), 10};
    scores[i].score = values[i];
  }
  return scores;
}

std::vector<std::uint32_t> begins_of(std::span<const ga::WindowSpec> specs) {
  std::vector<std::uint32_t> begins;
  for (const auto& spec : specs) begins.push_back(spec.begin);
  return begins;
}

TEST(LdPrefilter, StreamingAdmissionEqualsFullRankingEveryOrder) {
  const std::vector<WindowScore> scores = ranking_fixture();
  // Offer orders: genomic, reversed, and an interleaved shuffle.
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> forward(scores.size());
  std::iota(forward.begin(), forward.end(), 0u);
  orders.push_back(forward);
  orders.emplace_back(forward.rbegin(), forward.rend());
  orders.push_back({5, 2, 9, 0, 11, 7, 4, 1, 8, 3, 10, 6});

  for (const std::uint32_t keep : {1u, 3u, 5u, 12u, 99u}) {
    const auto expected = begins_of(top_windows(scores, keep));
    for (const auto& order : orders) {
      StreamingTopK admission(static_cast<std::uint32_t>(scores.size()),
                              keep);
      std::vector<std::uint32_t> admitted;
      for (const std::size_t i : order) {
        for (const WindowScore& released : admission.offer(scores[i])) {
          admitted.push_back(released.window.begin);
        }
      }
      EXPECT_TRUE(admission.complete());
      EXPECT_EQ(admission.admitted(), expected.size());
      std::sort(admitted.begin(), admitted.end());
      // The admitted set EQUALS the full ranking's output — streaming
      // may only change when windows are released, never which.
      EXPECT_EQ(admitted, expected) << "keep=" << keep;
    }
  }
}

TEST(LdPrefilter, StreamingAdmissionNeverAdmitsARankingReject) {
  // The satellite property, checked at every prefix: a window released
  // mid-stream must be in the top set of the FINAL full ranking — no
  // admission may later be proven wrong.
  const std::vector<WindowScore> scores = ranking_fixture();
  const std::uint32_t keep = 4;
  const auto final_top = begins_of(top_windows(scores, keep));

  StreamingTopK admission(static_cast<std::uint32_t>(scores.size()), keep);
  std::size_t released_total = 0;
  for (const WindowScore& score : scores) {
    for (const WindowScore& released : admission.offer(score)) {
      ++released_total;
      EXPECT_NE(std::find(final_top.begin(), final_top.end(),
                          released.window.begin),
                final_top.end())
          << "admitted window " << released.window.begin
          << " is not in the final top-" << keep;
    }
    EXPECT_LE(admission.admitted(), keep);
  }
  EXPECT_EQ(released_total, final_top.size());
}

TEST(LdPrefilter, StreamingAdmissionReleasesEarlyWhenProvable) {
  // keep >= total: every window is provably in the moment it is
  // scored — admissions must not wait for the sweep to end.
  const std::vector<WindowScore> scores = ranking_fixture();
  StreamingTopK admission(static_cast<std::uint32_t>(scores.size()),
                          static_cast<std::uint32_t>(scores.size()));
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const auto released = admission.offer(scores[i]);
    ASSERT_EQ(released.size(), 1u) << "offer " << i;
    EXPECT_EQ(released[0].window.begin, scores[i].window.begin);
  }
}

TEST(LdPrefilter, StreamingAdmissionEqualsFullRankingOnLargeTiedScan) {
  // A genome-scale offer stream: 5000 windows whose scores take only
  // eleven values (heavy ties, the ceiling included), offered in
  // genomic, reversed and shuffled order. The admitted set must equal
  // the full ranking's, and each window be released at most once.
  constexpr std::uint32_t kWindows = 5000;
  Rng rng(99);
  std::vector<WindowScore> scores(kWindows);
  for (std::uint32_t i = 0; i < kWindows; ++i) {
    scores[i].window = {i * 48, 64};
    scores[i].score = static_cast<double>(rng.below(11)) / 10.0;
  }
  std::vector<std::size_t> forward(kWindows);
  std::iota(forward.begin(), forward.end(), 0u);
  std::vector<std::size_t> shuffled = forward;
  rng.shuffle(std::span<std::size_t>(shuffled));
  const std::vector<std::vector<std::size_t>> orders{
      forward, {forward.rbegin(), forward.rend()}, shuffled};

  for (const std::uint32_t keep : {0u, 1u, 8u, 450u, 4999u, 5000u}) {
    const auto expected = begins_of(top_windows(scores, keep));
    for (const auto& order : orders) {
      StreamingTopK admission(kWindows, keep);
      std::vector<std::uint32_t> admitted;
      for (const std::size_t i : order) {
        for (const WindowScore& released : admission.offer(scores[i])) {
          admitted.push_back(released.window.begin);
        }
        ASSERT_LE(admission.admitted(), keep);
      }
      EXPECT_TRUE(admission.complete());
      std::sort(admitted.begin(), admitted.end());
      EXPECT_EQ(admitted, expected) << "keep=" << keep;
    }
  }
}

TEST(LdPrefilter, ConfigRejectsBadKnobs) {
  LdPrefilterConfig bad_threshold;
  bad_threshold.strong_r2 = 1.5;
  EXPECT_THROW(bad_threshold.validate(), ConfigError);
}

}  // namespace
}  // namespace ldga::analysis
