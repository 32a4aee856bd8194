#include "analysis/ld_prefilter.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <optional>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ldga::analysis {

using genomics::PairLd;
using genomics::SnpIndex;

void LdPrefilterConfig::validate() const {
  if (!(strong_r2 >= 0.0 && strong_r2 <= 1.0)) {
    throw ConfigError("LdPrefilterConfig: strong_r2 must be in [0, 1]");
  }
}

namespace {

/// All-ones cohort mask with the padding tail cleared.
std::vector<std::uint64_t> everyone_mask(std::uint32_t individuals,
                                         std::uint32_t words) {
  std::vector<std::uint64_t> mask(words, ~std::uint64_t{0});
  if (const std::uint32_t tail = individuals % 64; tail != 0 && words > 0) {
    mask[words - 1] = (std::uint64_t{1} << tail) - 1;
  }
  return mask;
}

/// valid = everyone & ~(lo & hi): the typed individuals of one locus.
void valid_mask(std::span<const std::uint64_t> lo,
                std::span<const std::uint64_t> hi,
                std::span<const std::uint64_t> everyone,
                std::uint64_t* out) {
  for (std::size_t w = 0; w < lo.size(); ++w) {
    out[w] = everyone[w] & ~(lo[w] & hi[w]);
  }
}

/// The nine popcounts of one pair, reduced to composite LD: the
/// per-pair reference behind composite_pair_ld, kept independent of
/// the sweep's hoisted arithmetic so tests can hold the sweep to it.
/// `joint` and `tmp` are word scratch (words each).
PairLd pair_ld_from_planes(const util::SimdKernels& kernels,
                           const std::uint64_t* lo_a,
                           const std::uint64_t* hi_a,
                           const std::uint64_t* valid_a,
                           const std::uint64_t* lo_b,
                           const std::uint64_t* hi_b,
                           const std::uint64_t* valid_b, std::size_t words,
                           std::uint64_t* joint, std::uint64_t* tmp) {
  // Passing one vector as both planes makes combine_planes_count a
  // plain fused AND-popcount: parent & x & x = parent & x.
  const double n = static_cast<double>(kernels.combine_planes_count(
      valid_a, valid_b, valid_b, 0, 0, words, joint));
  PairLd ld;
  if (n < 2.0) return ld;

  const auto count = [&](const std::uint64_t* x, const std::uint64_t* y) {
    return static_cast<double>(
        kernels.combine_planes_count(joint, x, y, 0, 0, words, tmp));
  };
  const double c_lo_a = count(lo_a, lo_a);
  const double c_hi_a = count(hi_a, hi_a);
  const double c_lo_b = count(lo_b, lo_b);
  const double c_hi_b = count(hi_b, hi_b);
  const double s_ab = count(lo_a, lo_b) + 2.0 * count(lo_a, hi_b) +
                      2.0 * count(hi_a, lo_b) + 4.0 * count(hi_a, hi_b);

  const double s_a = c_lo_a + 2.0 * c_hi_a;   // Σ g_a  (g = lo + 2·hi)
  const double sq_a = c_lo_a + 4.0 * c_hi_a;  // Σ g_a²
  const double s_b = c_lo_b + 2.0 * c_hi_b;
  const double sq_b = c_lo_b + 4.0 * c_hi_b;

  const double mean_a = s_a / n;
  const double mean_b = s_b / n;
  const double var_a = sq_a / n - mean_a * mean_a;
  const double var_b = sq_b / n - mean_b * mean_b;
  if (var_a <= 0.0 || var_b <= 0.0) return ld;  // monomorphic in V

  const double cov = s_ab / n - mean_a * mean_b;
  ld.r2 = std::min((cov * cov) / (var_a * var_b), 1.0);
  // Composite D: dosage covariance halves into a per-chromosome
  // disequilibrium; Lewontin's bound from the dosage allele
  // frequencies.
  ld.d = cov / 2.0;
  const double p_a = s_a / (2.0 * n);
  const double p_b = s_b / (2.0 * n);
  const double d_max =
      ld.d >= 0.0
          ? std::min(p_a * (1.0 - p_b), p_b * (1.0 - p_a))
          : std::min(p_a * p_b, (1.0 - p_a) * (1.0 - p_b));
  ld.d_prime = d_max > 0.0 ? std::min(std::abs(ld.d) / d_max, 1.0) : 0.0;
  return ld;
}

}  // namespace

PairLd composite_pair_ld(const genomics::GenotypeStore& store, SnpIndex a,
                         SnpIndex b) {
  LDGA_EXPECTS(a < store.snp_count() && b < store.snp_count() && a != b);
  const std::uint32_t words = store.words_per_snp();
  const std::vector<std::uint64_t> everyone =
      everyone_mask(store.individual_count(), words);
  std::vector<std::uint64_t> valid_a(words);
  std::vector<std::uint64_t> valid_b(words);
  valid_mask(store.low_plane(a), store.high_plane(a), everyone,
             valid_a.data());
  valid_mask(store.low_plane(b), store.high_plane(b), everyone,
             valid_b.data());
  std::vector<std::uint64_t> joint(words);
  std::vector<std::uint64_t> tmp(words);
  return pair_ld_from_planes(util::simd(), store.low_plane(a).data(),
                             store.high_plane(a).data(), valid_a.data(),
                             store.low_plane(b).data(),
                             store.high_plane(b).data(), valid_b.data(),
                             words, joint.data(), tmp.data());
}

namespace {

/// One locus's dosage terms over n jointly-typed individuals: the
/// doubles pair_ld_from_planes derives per pair, operation for
/// operation. For a fully typed locus they are per-SNP constants.
struct DosageTerms {
  double mean = 0.0;
  double var = 0.0;
  double p = 0.0;  ///< dosage allele frequency
  double q = 0.0;  ///< 1 − p
};

DosageTerms dosage_terms(double n, double c_lo, double c_hi) {
  const double s = c_lo + 2.0 * c_hi;   // Σ g  (g = lo + 2·hi)
  const double sq = c_lo + 4.0 * c_hi;  // Σ g²
  DosageTerms terms;
  terms.mean = s / n;
  terms.var = sq / n - terms.mean * terms.mean;
  terms.p = s / (2.0 * n);
  terms.q = 1.0 - terms.p;
  return terms;
}

/// Composite LD from both loci's terms and Σ g_a·g_b over the same n
/// individuals — the tail of pair_ld_from_planes, bit for bit.
PairLd ld_from_terms(const DosageTerms& a, const DosageTerms& b, double n,
                     double s_ab) {
  PairLd ld;
  if (a.var <= 0.0 || b.var <= 0.0) return ld;  // monomorphic in V
  const double cov = s_ab / n - a.mean * b.mean;
  ld.r2 = std::min((cov * cov) / (a.var * b.var), 1.0);
  ld.d = cov / 2.0;
  const double d_max = ld.d >= 0.0 ? std::min(a.p * b.q, b.p * a.q)
                                   : std::min(a.p * b.p, a.q * b.q);
  ld.d_prime = d_max > 0.0 ? std::min(std::abs(ld.d) / d_max, 1.0) : 0.0;
  return ld;
}

/// std::min by value — the same (b < a ? b : a) selection, in a form
/// the vectorizer can turn into a lane blend.
inline double min_of(double a, double b) { return b < a ? b : a; }

/// Plane indices of the masked per-SNP planes.
enum Plane : std::size_t { kLo = 0, kHi = 1, kValid = 2, kPlanes = 3 };

/// One scoring thread's window sweep and its scratch. The window's
/// planes are masked by validity once per SNP (lo' = lo∧V, hi' = hi∧V,
/// so a missing call encodes as (0, 0) and cnt(V_a∧V_b∧x_a∧y_b) =
/// cnt(x'_a∧y'_b)), then kept in two layouts: SNP-major rows for the
/// left SNP of each pair and word-major columns ([word][snp]) for the
/// block kernel's right-hand block. Each row of pairs is one
/// pair_block_counts call. A row whose SNPs are all fully typed
/// reduces with the hoisted per-SNP terms in a branch-free loop; a row
/// touching a missing call takes the general nine-count path.
class WindowSweep {
 public:
  WindowScore score_window(const util::SimdKernels& kernels,
                           const genomics::GenotypeStore& store,
                           std::span<const std::uint64_t> everyone,
                           const ga::WindowSpec& window, double strong_r2) {
    const std::uint32_t count = window.count;
    load(kernels, store, everyone, window);

    WindowScore score;
    score.window = window;
    double sum_r2 = 0.0;
    double sum_dprime = 0.0;
    for (std::uint32_t a = 0; a + 1 < count; ++a) {
      const std::size_t n = count - a - 1;
      if (typed_[a] && last_untyped_ <= a) {
        typed_row(kernels, a, n);
      } else {
        general_row(kernels, a, n);
      }
      // Fixed pair order (a, then b ascending), one thread per window.
      for (std::size_t j = 0; j < n; ++j) {
        const double r2 = r2_[j];
        ++score.pairs;
        sum_r2 += r2;
        sum_dprime += dprime_[j];
        score.max_r2 = std::max(score.max_r2, r2);
        if (r2 >= strong_r2) ++score.strong_pairs;
      }
    }
    if (score.pairs > 0) {
      score.mean_r2 = sum_r2 / static_cast<double>(score.pairs);
      score.mean_abs_d_prime = sum_dprime / static_cast<double>(score.pairs);
    }
    score.score = score.mean_r2;
    return score;
  }

 private:
  std::uint64_t* row(Plane plane, std::uint32_t s) {
    return rows_.data() + (plane * count_ + s) * words_;
  }
  DosageTerms typed_terms(std::uint32_t s) const {
    return {mean_[s], var_[s], p_[s], q_[s]};
  }

  /// The word-major block of SNPs [first, count).
  const std::uint64_t* column(Plane plane, std::uint32_t first) const {
    return columns_.data() + plane * words_ * count_ + first;
  }

  /// Σ g_a·g_b of pair (a, a + 1 + j) from the row's joint counts.
  /// Counts stay far below 2^31, and going through int32 lets SSE2
  /// vectorize the conversion (it has no unsigned one).
  static double cross_sum(const std::uint32_t* joint, std::size_t n,
                          std::size_t j) {
    const auto count = [&](std::size_t k) {
      return static_cast<double>(static_cast<std::int32_t>(joint[k * n + j]));
    };
    return count(0) + 2.0 * count(1) + 2.0 * count(2) + 4.0 * count(3);
  }

  /// Every pair of the row is over all individuals: n and the per-SNP
  /// terms are constants, so a pair costs its four cross counts and
  /// three divisions. Both D' bounds are computed and selected, and
  /// degenerate pairs are masked to zero afterwards, so the loop has
  /// no data-dependent branch; every kept value is the one
  /// ld_from_terms computes.
  void typed_row(const util::SimdKernels& kernels, std::uint32_t a,
                 std::size_t n) {
    const std::uint32_t first = a + 1;
    kernels.pair_block_counts(row(kLo, a), row(kHi, a), column(kLo, first),
                              column(kHi, first), count_, words_, n,
                              counts_.data());
    const double all = individuals_;
    const DosageTerms ta = typed_terms(a);
    if (!(all >= 2.0 && ta.var > 0.0)) {
      std::fill_n(r2_.begin(), n, 0.0);
      std::fill_n(dprime_.begin(), n, 0.0);
      return;
    }
    const std::uint32_t* const joint = counts_.data();
    const double* const mean_b = mean_.data() + first;
    const double* const var_b = var_.data() + first;
    const double* const p_b = p_.data() + first;
    const double* const q_b = q_.data() + first;
    double* const r2_out = r2_.data();
    double* const dprime_out = dprime_.data();
    for (std::size_t j = 0; j < n; ++j) {
      const double cov = cross_sum(joint, n, j) / all - ta.mean * mean_b[j];
      const double r2 = min_of((cov * cov) / (ta.var * var_b[j]), 1.0);
      const double d = cov / 2.0;
      const double d_max_pos = min_of(ta.p * q_b[j], p_b[j] * ta.q);
      const double d_max_neg = min_of(ta.p * p_b[j], ta.q * q_b[j]);
      const double d_max = d >= 0.0 ? d_max_pos : d_max_neg;
      const double d_prime = min_of(std::abs(d) / d_max, 1.0);
      const bool live = var_b[j] > 0.0;
      r2_out[j] = live ? r2 : 0.0;
      dprime_out[j] = live && d_max > 0.0 ? d_prime : 0.0;
    }
  }

  /// A row touching a missing call also needs each pair's typed set:
  /// n_ab = cnt(V_a∧V_b), cnt(lo'_a∧V_b), cnt(hi'_a∧V_b), cnt(V_a∧lo'_b)
  /// and cnt(V_a∧hi'_b), from two more block calls. A pair of two fully
  /// typed SNPs gets n_ab = everyone here, so its terms equal the
  /// hoisted ones.
  void general_row(const util::SimdKernels& kernels, std::uint32_t a,
                   std::size_t n) {
    const std::uint32_t first = a + 1;
    std::uint32_t* const joint = counts_.data();
    std::uint32_t* const valid_hi = joint + 4 * n;
    std::uint32_t* const hi_valid = joint + 8 * n;
    kernels.pair_block_counts(row(kLo, a), row(kHi, a), column(kLo, first),
                              column(kHi, first), count_, words_, n, joint);
    // (V_a, lo'_a) × (V_b, hi'_b): n_ab, V_a∧hi'_b, lo'_a∧V_b, —
    kernels.pair_block_counts(row(kValid, a), row(kLo, a),
                              column(kValid, first), column(kHi, first),
                              count_, words_, n, valid_hi);
    // (hi'_a, V_a) × (V_b, lo'_b): hi'_a∧V_b, —, —, V_a∧lo'_b
    kernels.pair_block_counts(row(kHi, a), row(kValid, a),
                              column(kValid, first), column(kLo, first),
                              count_, words_, n, hi_valid);
    for (std::size_t j = 0; j < n; ++j) {
      PairLd ld;
      if (const double n_ab = static_cast<double>(valid_hi[j]); n_ab >= 2.0) {
        ld = ld_from_terms(
            dosage_terms(n_ab, static_cast<double>(valid_hi[2 * n + j]),
                         static_cast<double>(hi_valid[j])),
            dosage_terms(n_ab, static_cast<double>(hi_valid[3 * n + j]),
                         static_cast<double>(valid_hi[n + j])),
            n_ab, cross_sum(joint, n, j));
      }
      r2_[j] = ld.r2;
      dprime_[j] = ld.d_prime;
    }
  }

  /// Masks and lays out the window's planes, and hoists the per-SNP
  /// terms of its fully typed SNPs.
  void load(const util::SimdKernels& kernels,
            const genomics::GenotypeStore& store,
            std::span<const std::uint64_t> everyone,
            const ga::WindowSpec& window) {
    count_ = window.count;
    words_ = everyone.size();
    individuals_ = static_cast<double>(store.individual_count());
    rows_.resize(kPlanes * count_ * words_);
    columns_.resize(kPlanes * words_ * count_);
    counts_.resize(12 * count_);
    r2_.resize(count_);
    dprime_.resize(count_);
    typed_.assign(count_, 0);
    mean_.assign(count_, 0.0);
    var_.assign(count_, 0.0);
    p_.assign(count_, 0.0);
    q_.assign(count_, 0.0);
    last_untyped_ = 0;
    for (std::uint32_t s = 0; s < count_; ++s) {
      const auto lo = store.low_plane(window.begin + s);
      const auto hi = store.high_plane(window.begin + s);
      std::uint64_t* const row_lo = row(kLo, s);
      std::uint64_t* const row_hi = row(kHi, s);
      std::uint64_t* const row_valid = row(kValid, s);
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t valid = everyone[w] & ~(lo[w] & hi[w]);
        row_lo[w] = lo[w] & valid;
        row_hi[w] = hi[w] & valid;
        row_valid[w] = valid;
        columns_[(kLo * words_ + w) * count_ + s] = row_lo[w];
        columns_[(kHi * words_ + w) * count_ + s] = row_hi[w];
        columns_[(kValid * words_ + w) * count_ + s] = valid;
      }
      const double typed =
          static_cast<double>(kernels.popcount_words(row_valid, words_));
      if (typed != individuals_) {
        last_untyped_ = s;
        continue;
      }
      typed_[s] = 1;
      const DosageTerms terms = dosage_terms(
          individuals_,
          static_cast<double>(kernels.popcount_words(row_lo, words_)),
          static_cast<double>(kernels.popcount_words(row_hi, words_)));
      mean_[s] = terms.mean;
      var_[s] = terms.var;
      p_[s] = terms.p;
      q_[s] = terms.q;
    }
  }

  std::size_t count_ = 0;
  std::size_t words_ = 0;
  double individuals_ = 0.0;
  std::vector<std::uint64_t> rows_;     ///< [plane][snp][word]
  std::vector<std::uint64_t> columns_;  ///< [plane][word][snp]
  std::vector<std::uint8_t> typed_;     ///< no missing call in the window
  std::uint32_t last_untyped_ = 0;      ///< highest untyped SNP (0 if none)
  /// DosageTerms of each typed SNP over everyone, as columns for the
  /// typed rows' vectorizable loop.
  std::vector<double> mean_, var_, p_, q_;
  std::vector<std::uint32_t> counts_;  ///< a row's block outputs, 4n each
  std::vector<double> r2_, dprime_;    ///< a row's pair results
};

/// Windows scored per worker thread between two in-order sink rounds.
constexpr std::size_t kWindowsPerThreadRound = 32;

}  // namespace

std::vector<WindowScore> score_windows(const genomics::GenotypeStore& store,
                                       std::span<const ga::WindowSpec> windows,
                                       const LdPrefilterConfig& config) {
  std::vector<WindowScore> scores;
  scores.reserve(windows.size());
  score_windows_streaming(store, windows, config,
                          [&](const WindowScore& score) {
                            scores.push_back(score);
                          });
  return scores;
}

void score_windows_streaming(
    const genomics::GenotypeStore& store,
    std::span<const ga::WindowSpec> windows, const LdPrefilterConfig& config,
    const std::function<void(const WindowScore&)>& sink) {
  config.validate();
  for (const ga::WindowSpec& window : windows) {
    LDGA_EXPECTS(window.begin < store.snp_count() &&
                 window.count <= store.snp_count() - window.begin);
  }
  const std::vector<std::uint64_t> everyone =
      everyone_mask(store.individual_count(), store.words_per_snp());
  const util::SimdKernels& kernels = util::simd();

  // `workers` counts every scoring thread: the caller plus workers − 1
  // pool threads. Windows are the unit of parallel work — each one is
  // summed by one thread in fixed pair order, so scores do not depend
  // on the thread count — and a round's scores reach the sink on the
  // caller, in window order, before the next round starts.
  const std::uint32_t threads =
      config.workers > 0 ? config.workers : parallel::default_thread_count();
  std::optional<parallel::ThreadPool> pool;
  if (threads > 1 && windows.size() > 1) pool.emplace(threads - 1);
  const std::size_t lanes = pool ? pool->thread_count() + 1 : 1;
  std::vector<WindowSweep> sweeps(lanes);
  const std::size_t round = lanes * kWindowsPerThreadRound;
  std::vector<WindowScore> scored(std::min(round, windows.size()));

  for (std::size_t first = 0; first < windows.size(); first += round) {
    const std::size_t last = std::min(first + round, windows.size());
    std::atomic<std::size_t> next{first};
    const auto claim = [&](std::size_t lane, std::size_t) {
      // Dynamic claims within the round: a lane slowed by other work
      // on the host does not hold up the rest.
      for (std::size_t w = next.fetch_add(1, std::memory_order_relaxed);
           w < last; w = next.fetch_add(1, std::memory_order_relaxed)) {
        scored[w - first] = sweeps[lane].score_window(
            kernels, store, everyone, windows[w], config.strong_r2);
      }
    };
    if (pool) {
      pool->parallel_for_chunked(0, lanes, claim);
    } else {
      claim(0, 0);
    }
    for (std::size_t w = first; w < last; ++w) sink(scored[w - first]);
  }
}

std::vector<ga::WindowSpec> top_windows(std::span<const WindowScore> scores,
                                        std::uint32_t keep) {
  std::vector<std::uint32_t> order(scores.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     if (scores[x].score != scores[y].score) {
                       return scores[x].score > scores[y].score;
                     }
                     return scores[x].window.begin < scores[y].window.begin;
                   });
  order.resize(std::min<std::size_t>(order.size(), keep));
  std::sort(order.begin(), order.end());  // back to genomic order
  std::vector<ga::WindowSpec> kept;
  kept.reserve(order.size());
  for (const std::uint32_t i : order) kept.push_back(scores[i].window);
  return kept;
}

bool StreamingTopK::RanksAbove::operator()(const WindowScore& x,
                                           const WindowScore& y) const {
  if (x.score != y.score) return x.score > y.score;
  return x.window.begin < y.window.begin;
}

StreamingTopK::StreamingTopK(std::uint32_t total, std::uint32_t keep,
                             double max_score)
    : total_(total), keep_(keep), max_score_(max_score) {
  if (!(max_score >= 0.0)) {
    throw ConfigError("StreamingTopK: max_score must be a bound, >= 0");
  }
}

std::vector<WindowScore> StreamingTopK::offer(const WindowScore& score) {
  LDGA_EXPECTS(offered_ < total_);
  LDGA_EXPECTS(score.score <= max_score_);
  ++offered_;

  // The admitted windows and the contenders together are the best
  // `keep` scored so far; a window's rank among them is its count of
  // scored rivals above, and the admitted ones are always the top
  // ranks. A newcomer that outranks every contender lands among them,
  // at a rank r <= admitted. Every admission keeps admitted + unscored
  // <= keep, so r + (unscored after this offer) < keep: it is proven
  // in on the spot.
  std::vector<WindowScore> released;
  if (admitted_ > 0 &&
      (contenders_.empty() || RanksAbove{}(score, *contenders_.begin()))) {
    released.push_back(score);
    ++admitted_;
  } else {
    contenders_.insert(score);
  }
  if (admitted_ + contenders_.size() > keep_) {
    // keep windows already rank above the worst — provably rejected.
    contenders_.erase(std::prev(contenders_.end()));
  }

  // Every unscored window could still score the ceiling with an
  // earlier begin, so it counts as a potential rival of everyone; a
  // window of rank r is proven in once r + unscored < keep. Both counts
  // are monotone in offers, so a decision made here is final.
  const std::uint32_t unscored = total_ - offered_;
  while (!contenders_.empty() && admitted_ + unscored < keep_) {
    released.push_back(*contenders_.begin());
    contenders_.erase(contenders_.begin());
    ++admitted_;
  }
  std::sort(released.begin(), released.end(),
            [](const WindowScore& a, const WindowScore& b) {
              return a.window.begin < b.window.begin;
            });
  return released;
}

}  // namespace ldga::analysis
