#include "obs/query_registry.h"

#include "obs/profile.h"
#include "util/string_util.h"

namespace smadb::obs {

void QueryRegistry::Register(uint64_t query_id, uint64_t trace_id,
                             uint64_t session_id, std::string sql,
                             std::shared_ptr<util::CancelToken> cancel,
                             const QueryProfile* profile) {
  Entry e;
  e.trace_id = trace_id;
  e.session_id = session_id;
  e.sql = std::move(sql);
  e.phase = "admission";
  e.start = std::chrono::steady_clock::now();
  e.cancel = std::move(cancel);
  e.profile = profile;
  std::lock_guard<std::mutex> lock(mu_);
  entries_[query_id] = std::move(e);
}

void QueryRegistry::SetPhase(uint64_t query_id, std::string phase) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query_id);
  if (it != entries_.end()) it->second.phase = std::move(phase);
}

void QueryRegistry::Unregister(uint64_t query_id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(query_id);
}

bool QueryRegistry::Kill(uint64_t query_id) {
  std::shared_ptr<util::CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(query_id);
    if (it == entries_.end()) return false;
    token = it->second.cancel;
  }
  // Trip outside the registry mutex: Cancel() is cheap, but keeping the
  // lock footprint minimal means a stuck killer can never delay
  // register/unregister on the query path.
  if (token != nullptr) token->Cancel();
  return true;
}

std::vector<QueryInfo> QueryRegistry::Snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryInfo> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    QueryInfo info;
    info.query_id = id;
    info.trace_id = e.trace_id;
    info.session_id = e.session_id;
    info.sql = e.sql;
    info.phase = e.phase;
    info.elapsed_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - e.start)
            .count());
    if (e.profile != nullptr) info.rows = e.profile->RowsProduced();
    if (e.cancel != nullptr) info.cancel_requested = e.cancel->ShouldStop();
    out.push_back(std::move(info));
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string QueryRegistry::DumpJson() const {
  std::string out = "[";
  bool first = true;
  for (const QueryInfo& q : Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += util::Format(
        "\n  {\"query\": %llu, \"trace\": \"%llx\", \"session\": %llu, "
        "\"sql\": \"%s\", \"phase\": \"%s\", \"elapsed_us\": %llu, "
        "\"rows\": %llu, \"cancel_requested\": %s}",
        static_cast<unsigned long long>(q.query_id),
        static_cast<unsigned long long>(q.trace_id),
        static_cast<unsigned long long>(q.session_id),
        JsonEscape(q.sql).c_str(), JsonEscape(q.phase).c_str(),
        static_cast<unsigned long long>(q.elapsed_us),
        static_cast<unsigned long long>(q.rows),
        q.cancel_requested ? "true" : "false");
  }
  out += first ? "]" : "\n]";
  return out;
}

size_t QueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace smadb::obs
