// T6 — Optimality gap vs the exact IP branch-and-bound.
//
// Tiny instances the exact solver can exhaust; SRA's bottleneck is
// compared against the true optimum of the IP model (and the optimum's
// feasibility is audited against the explicit IP constraints). Expected
// shape: SRA within a few percent of optimal everywhere, usually exact.
//
//   ./table6_optgap [--check]
//
// --check exits nonzero unless SRA matches the optimum on at least
// kCheckMatches of the 18 instances.

#include <cstdio>

#include "core/sra.hpp"
#include "model/branch_bound.hpp"
#include "model/ip_model.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

namespace {
constexpr int kCheckMatches = 17;
}

int main(int argc, char** argv) {
  resex::Flags flags;
  flags.define("check", "false", "exit nonzero unless SRA is near-optimal");
  flags.parse(argc, argv);

  std::printf("== T6: SRA vs exact branch-and-bound on the IP model ==\n\n");

  resex::Table table({"machines", "shards", "k", "seed", "optimal", "SRA", "gap",
                      "B&B nodes", "B&B secs"});
  resex::OnlineStats gaps;
  int exactMatches = 0;
  int total = 0;

  for (const std::size_t machines : {4u, 5u}) {
    for (const std::size_t shards : {10u, 12u, 14u}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        const resex::Instance instance =
            resex::tinyTestInstance(seed * 97 + shards, machines, shards, 1, 0.6);

        resex::BranchBoundConfig bbConfig;
        bbConfig.timeBudgetSeconds = 20.0;
        const resex::BranchBoundResult exact =
            resex::BranchBoundSolver(bbConfig).solve(instance);
        if (!exact.optimal) {
          std::printf("(skipping m=%zu n=%zu seed=%llu: B&B hit its budget)\n",
                      machines, shards, static_cast<unsigned long long>(seed));
          continue;
        }
        // Audit the optimum against the explicit IP model.
        const resex::IpModel model(instance);
        if (!model.checkMapping(exact.mapping).empty()) {
          std::printf("IP AUDIT FAILED for m=%zu n=%zu seed=%llu\n", machines,
                      shards, static_cast<unsigned long long>(seed));
          return 1;
        }

        resex::SraConfig sraConfig;
        sraConfig.lns.seed = seed;
        sraConfig.lns.maxIterations = 6000;
        resex::Sra sra(sraConfig);
        const resex::RebalanceResult r = sra.rebalance(instance);

        const double gap = r.after.bottleneckUtil / exact.bottleneck - 1.0;
        gaps.add(gap);
        ++total;
        if (gap < 1e-6) ++exactMatches;
        table.addRow({resex::Table::num(machines), resex::Table::num(shards),
                      resex::Table::num(std::size_t{1}),
                      resex::Table::num(static_cast<std::size_t>(seed)),
                      resex::Table::num(exact.bottleneck, 4),
                      resex::Table::num(r.after.bottleneckUtil, 4),
                      resex::Table::pct(gap, 2),
                      resex::Table::num(static_cast<std::size_t>(exact.nodesVisited)),
                      resex::Table::num(exact.seconds, 3)});
      }
    }
  }
  table.print();
  std::printf("\nmean gap %.2f%%, max gap %.2f%%, exact on %d/%d instances\n",
              gaps.mean() * 100.0, gaps.max() * 100.0, exactMatches, total);
  if (flags.boolean("check") && exactMatches < kCheckMatches) {
    std::fprintf(stderr, "CHECK FAILED: SRA matched the optimum on %d instances, "
                         "fewer than %d of 18\n",
                 exactMatches, kCheckMatches);
    return 1;
  }
  return 0;
}
