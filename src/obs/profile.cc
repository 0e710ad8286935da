#include "obs/profile.h"

#include "util/string_util.h"

namespace smadb::obs {

void OperatorProfile::SetDetail(std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  detail_ = std::move(detail);
}

void OperatorProfile::MarkFailed(std::string why) {
  failed_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (!detail_.empty()) detail_ += " ";
  detail_ += "error=" + why;
}

std::string OperatorProfile::detail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return detail_;
}

OperatorProfile* QueryProfile::NewNode(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  nodes_.emplace_back(std::move(name));
  return &nodes_.back();
}

void QueryProfile::AddPhaseNs(std::string_view phase, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, total] : phases_) {
    if (name == phase) {
      total += ns;
      return;
    }
  }
  phases_.emplace_back(std::string(phase), ns);
}

void QueryProfile::AddEvent(std::string note) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(note));
}

void QueryProfile::SetSummary(std::string summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summary_ = std::move(summary);
}

void QueryProfile::SetStorageDelta(uint64_t pool_hits, uint64_t pool_misses,
                                   uint64_t pages_read) {
  std::lock_guard<std::mutex> lock(mu_);
  pool_hits_ = pool_hits;
  pool_misses_ = pool_misses;
  pages_read_ = pages_read;
}

uint64_t QueryProfile::PhaseNs(std::string_view phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, total] : phases_) {
    if (name == phase) return total;
  }
  return 0;
}

std::vector<std::string> QueryProfile::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t QueryProfile::RowsProduced() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t rows = 0;
  for (const OperatorProfile& node : nodes_) rows += node.rows();
  return rows;
}

namespace {

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string RenderNode(const OperatorProfile* node) {
  std::string line = "  " + node->name();
  line += util::Format("  wall=%.3fms rows=%llu", Ms(node->wall_ns()),
                       static_cast<unsigned long long>(node->rows()));
  if (node->batches() > 0) {
    line += util::Format(" batches=%llu",
                         static_cast<unsigned long long>(node->batches()));
  }
  if (node->qualifying() + node->disqualifying() + node->ambivalent() > 0) {
    line += util::Format(
        " buckets[q=%llu d=%llu a=%llu]",
        static_cast<unsigned long long>(node->qualifying()),
        static_cast<unsigned long long>(node->disqualifying()),
        static_cast<unsigned long long>(node->ambivalent()));
  }
  if (node->buckets_skipped() > 0) {
    line += util::Format(
        " skipped=%llu",
        static_cast<unsigned long long>(node->buckets_skipped()));
  }
  if (node->pages_read() > 0) {
    line += util::Format(
        " pages=%llu", static_cast<unsigned long long>(node->pages_read()));
  }
  if (node->peak_bytes() > 0) {
    line += " peak=" + util::HumanBytes(node->peak_bytes());
  }
  if (node->failed()) line += " FAILED";
  const std::string detail = node->detail();
  if (!detail.empty()) line += " [" + detail + "]";
  return line;
}

}  // namespace

std::vector<std::string> QueryProfile::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  std::string head =
      util::Format("query %llu", static_cast<unsigned long long>(query_id_));
  if (trace_id_ != 0) {
    head += util::Format(" trace=%llx",
                         static_cast<unsigned long long>(trace_id_));
  }
  out.push_back(std::move(head));
  if (!summary_.empty()) out.push_back("plan: " + summary_);
  if (!phases_.empty()) {
    std::string line = "phases:";
    uint64_t total = 0;
    for (const auto& [name, ns] : phases_) {
      line += util::Format(" %s=%.3fms", name.c_str(), Ms(ns));
      total += ns;
    }
    line += util::Format(" total=%.3fms", Ms(total));
    out.push_back(std::move(line));
  }
  out.push_back(util::Format(
      "buffer pool: hits=%llu misses=%llu; disk pages read=%llu",
      static_cast<unsigned long long>(pool_hits_),
      static_cast<unsigned long long>(pool_misses_),
      static_cast<unsigned long long>(pages_read_)));
  out.push_back("operators:");
  for (const OperatorProfile& node : nodes_) out.push_back(RenderNode(&node));
  if (!events_.empty()) {
    out.push_back("events:");
    for (const std::string& e : events_) out.push_back("  - " + e);
  }
  return out;
}

}  // namespace smadb::obs
