// TGA training-data bias (the paper's §1/§2 motivation, quantified).
//
// "Target generation algorithms ... must be trained on some hitlist and
// are biased to the types of addresses contained in their training data."
// This bench trains two classic TGA families (Entropy/IP-style and
// 6Tree-style) on each of the three corpora and probes their candidates:
// infrastructure-rich training data (CAIDA, Hitlist) yields structured,
// persistent targets that answer, while the client-rich NTP corpus —
// despite being orders of magnitude larger — teaches the models ephemeral
// randomness that has long since vanished. Bigger is not automatically
// better for this use; that is exactly why the paper argues hitlist
// *composition* matters, not just size.
#include <unordered_set>

#include "bench_common.h"
#include "scan/tga.h"

namespace {

using namespace v6;

std::vector<net::Ipv6Address> sample_addresses(const hitlist::Corpus& corpus,
                                               std::size_t cap,
                                               std::uint64_t seed) {
  std::vector<net::Ipv6Address> out;
  out.reserve(std::min<std::size_t>(corpus.size(), cap));
  const double keep = corpus.size() <= cap
                          ? 1.0
                          : static_cast<double>(cap) /
                                static_cast<double>(corpus.size());
  util::Rng rng(seed);
  for (const auto& rec : corpus.records()) {
    if (rng.chance(keep)) out.push_back(rec.address);
  }
  return out;
}

}  // namespace

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("TGA bias: who you train on is what you find", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  bench::timed("active campaigns", [&] {
    study.run({.collect = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  struct TrainingSet {
    const char* name;
    std::vector<net::Ipv6Address> addresses;
  };
  const std::size_t kTrainCap = 40000;
  std::vector<TrainingSet> training_sets;
  training_sets.push_back(
      {"NTP corpus (client-rich)", sample_addresses(r.ntp, kTrainCap, 1)});
  training_sets.push_back(
      {"IPv6 Hitlist", sample_addresses(r.hitlist.corpus, kTrainCap, 2)});
  training_sets.push_back(
      {"CAIDA routed /48", sample_addresses(r.caida.corpus, kTrainCap, 3)});

  // Candidates are probed "now": just after the study window, when
  // ephemeral training addresses are long gone but structure persists.
  const util::SimTime probe_time =
      study.config().world.study_duration + util::kDay;
  constexpr std::size_t kCandidates = 20000;

  util::TablePrinter table({"training set", "model", "trained on",
                            "candidates (unique)", "responsive", "hit rate",
                            "new (not in training)"});
  double ntp_hit = 0.0, caida_hit = 0.0;

  for (const auto& training : training_sets) {
    if (training.addresses.empty()) continue;
    util::Rng rng(util::mix64(0x76a ^ training.addresses.size()));

    scan::EntropyIpModel entropy_model;
    entropy_model.train(training.addresses);
    scan::SpaceTreeModel tree_model;
    tree_model.train(training.addresses);

    for (int which = 0; which < 2; ++which) {
      const auto candidates =
          which == 0 ? entropy_model.generate(kCandidates, rng)
                     : tree_model.generate(kCandidates, rng);
      scan::Zmap6Scanner scanner(
          study.plane(),
          {study.world().vantages().front().address, 100000, 0, rng.next()});
      const auto evaluation = scan::evaluate_candidates(
          candidates, training.addresses, scanner, probe_time);
      table.add_row({training.name,
                     which == 0 ? "Entropy/IP" : "6Tree",
                     util::with_commas(training.addresses.size()),
                     util::with_commas(evaluation.unique),
                     util::with_commas(evaluation.responsive),
                     util::percent(evaluation.hit_rate()),
                     util::with_commas(evaluation.new_responsive)});
      if (which == 1) {
        if (training.name[0] == 'N') ntp_hit = evaluation.hit_rate();
        if (training.name[0] == 'C') caida_hit = evaluation.hit_rate();
      }
    }
  }
  table.print(std::cout);

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("infra-trained >> client-trained hit rate",
                 "implied by §1/§2 (and Steger et al. 2023)",
                 caida_hit > ntp_hit ? "yes" : "no");
  comparison.row("CAIDA-trained 6Tree hit rate", "-",
                 util::percent(caida_hit));
  comparison.row("NTP-trained 6Tree hit rate", "-",
                 util::percent(ntp_hit));
  comparison.print();
  std::printf(
      "\nthe punchline: the 7.9B-address corpus is the *worst* TGA diet in "
      "this table —\nits addresses are ephemeral clients, gone before any "
      "scan. The paper's benefit\nclaim is about coverage and analysis, "
      "not about feeding target generators.\n");
  return 0;
}
