#include "model/ip_model.hpp"

#include <cmath>
#include <sstream>

#include "cluster/assignment.hpp"

namespace resex {

IpModel::IpModel(const Instance& instance)
    : instance_(&instance), shardCount_(instance.shardCount()),
      machineCount_(instance.machineCount()) {
  const std::size_t n = shardCount_;
  const std::size_t m = machineCount_;
  const std::size_t dims = instance.dims();

  // Each shard on exactly one machine.
  for (ShardId s = 0; s < n; ++s) {
    LinearConstraint c;
    c.sense = LinearConstraint::Sense::Equal;
    c.rhs = 1.0;
    c.name = "assign_s" + std::to_string(s);
    for (MachineId i = 0; i < m; ++i) {
      c.vars.push_back(xVar(s, i));
      c.coeffs.push_back(1.0);
    }
    constraints_.push_back(std::move(c));
  }

  // Per machine and dimension: load <= C * Lambda  and  load <= C.
  for (MachineId i = 0; i < m; ++i) {
    for (std::size_t r = 0; r < dims; ++r) {
      LinearConstraint balance;
      balance.sense = LinearConstraint::Sense::LessEqual;
      balance.rhs = 0.0;
      balance.name = "balance_m" + std::to_string(i) + "_d" + std::to_string(r);
      LinearConstraint capacity;
      capacity.sense = LinearConstraint::Sense::LessEqual;
      capacity.rhs = instance.machine(i).capacity[r];
      capacity.name = "capacity_m" + std::to_string(i) + "_d" + std::to_string(r);
      for (ShardId s = 0; s < n; ++s) {
        const double w = instance.shard(s).demand[r];
        if (w == 0.0) continue;
        balance.vars.push_back(xVar(s, i));
        balance.coeffs.push_back(w);
        capacity.vars.push_back(xVar(s, i));
        capacity.coeffs.push_back(w);
      }
      balance.vars.push_back(lambdaVar());
      balance.coeffs.push_back(-instance.machine(i).capacity[r]);
      constraints_.push_back(std::move(balance));
      constraints_.push_back(std::move(capacity));
    }
  }

  // Aggregated linking: sum_s x_{s,i} <= n * y_i. (Equivalent to the
  // per-shard x <= y links at integrality; kept aggregated so the model
  // stays O(n + m*d) constraints instead of O(n*m).)
  for (MachineId i = 0; i < m; ++i) {
    LinearConstraint link;
    link.sense = LinearConstraint::Sense::LessEqual;
    link.rhs = 0.0;
    link.name = "open_m" + std::to_string(i);
    for (ShardId s = 0; s < n; ++s) {
      link.vars.push_back(xVar(s, i));
      link.coeffs.push_back(1.0);
    }
    link.vars.push_back(yVar(i));
    link.coeffs.push_back(-static_cast<double>(n));
    constraints_.push_back(std::move(link));
  }

  // Anti-affinity: replicas of one group may not share a machine.
  if (instance.hasReplication()) {
    for (std::uint32_t g = 0; g < instance.replicaGroupCount(); ++g) {
      const auto members = instance.replicasInGroup(g);
      if (members.size() < 2) continue;
      for (MachineId i = 0; i < m; ++i) {
        LinearConstraint anti;
        anti.sense = LinearConstraint::Sense::LessEqual;
        anti.rhs = 1.0;
        anti.name = "antiaffinity_g" + std::to_string(g) + "_m" + std::to_string(i);
        for (const ShardId s : members) {
          anti.vars.push_back(xVar(s, i));
          anti.coeffs.push_back(1.0);
        }
        constraints_.push_back(std::move(anti));
      }
    }
  }

  // Compensation: at least k machines vacant, i.e. sum y_i <= m - k.
  LinearConstraint comp;
  comp.sense = LinearConstraint::Sense::LessEqual;
  comp.rhs = static_cast<double>(m) - static_cast<double>(instance.vacancyTarget());
  comp.name = "compensation";
  for (MachineId i = 0; i < m; ++i) {
    comp.vars.push_back(yVar(i));
    comp.coeffs.push_back(1.0);
  }
  constraints_.push_back(std::move(comp));
}

double IpModel::impliedLambda(const std::vector<MachineId>& mapping) const {
  Assignment state(*instance_, mapping);
  return state.bottleneckUtilization();
}

std::vector<std::string> IpModel::checkMapping(const std::vector<MachineId>& mapping) const {
  std::vector<double> values(variableCount(), 0.0);
  for (ShardId s = 0; s < shardCount_; ++s) {
    if (mapping.at(s) == kNoMachine) continue;
    values[xVar(s, mapping[s])] = 1.0;
    values[yVar(mapping[s])] = 1.0;
  }
  values[lambdaVar()] = impliedLambda(mapping);

  std::vector<std::string> violations;
  for (const LinearConstraint& c : constraints_) {
    double lhs = 0.0;
    for (std::size_t j = 0; j < c.vars.size(); ++j) lhs += c.coeffs[j] * values[c.vars[j]];
    const double tol = 1e-6;
    bool ok = true;
    switch (c.sense) {
      case LinearConstraint::Sense::LessEqual: ok = lhs <= c.rhs + tol; break;
      case LinearConstraint::Sense::GreaterEqual: ok = lhs >= c.rhs - tol; break;
      case LinearConstraint::Sense::Equal: ok = std::abs(lhs - c.rhs) <= tol; break;
    }
    if (!ok) violations.push_back(c.name);
  }
  return violations;
}

std::string IpModel::toLpFormat() const {
  std::ostringstream out;
  out.precision(12);
  auto varName = [this](std::size_t v) -> std::string {
    if (v == lambdaVar()) return "L";
    if (v >= shardCount_ * machineCount_)
      return "y_" + std::to_string(v - shardCount_ * machineCount_);
    return "x_" + std::to_string(v / machineCount_) + "_" +
           std::to_string(v % machineCount_);
  };

  out << "Minimize\n obj: L\nSubject To\n";
  for (const LinearConstraint& c : constraints_) {
    out << ' ' << c.name << ':';
    for (std::size_t j = 0; j < c.vars.size(); ++j) {
      const double coeff = c.coeffs[j];
      out << (coeff >= 0 ? " + " : " - ") << std::abs(coeff) << ' ' << varName(c.vars[j]);
    }
    switch (c.sense) {
      case LinearConstraint::Sense::LessEqual: out << " <= "; break;
      case LinearConstraint::Sense::GreaterEqual: out << " >= "; break;
      case LinearConstraint::Sense::Equal: out << " = "; break;
    }
    out << c.rhs << "\n";
  }
  out << "Bounds\n 0 <= L\nBinaries\n";
  for (std::size_t v = 0; v < lambdaVar(); ++v) out << ' ' << varName(v) << "\n";
  out << "End\n";
  return out.str();
}

}  // namespace resex
