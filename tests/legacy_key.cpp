#include "legacy_key.hpp"

#include <algorithm>
#include <numeric>

namespace lcdc::mc {

namespace {

/// All processor-id permutations when symmetry reduction is on (identity
/// first), or just the identity.
std::vector<std::vector<NodeId>> makeNodePermutations(NodeId procs,
                                                      bool symmetry) {
  std::vector<NodeId> ident(procs);
  std::iota(ident.begin(), ident.end(), NodeId{0});
  if (!symmetry || procs > kMaxSymmetryProcs) return {ident};
  std::vector<std::vector<NodeId>> out;
  std::vector<NodeId> perm = ident;
  do {
    out.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

}  // namespace

LegacyCanonicalizer::LegacyCanonicalizer(const McConfig& cfg)
    : cfg_(cfg),
      perms_(makeNodePermutations(cfg.numProcessors, cfg.symmetry)) {
  for (const auto& perm : perms_) {
    std::vector<NodeId> inv(perm.size());
    for (NodeId i = 0; i < perm.size(); ++i) inv[perm[i]] = i;
    invPerms_.push_back(std::move(inv));
  }
}

std::string LegacyCanonicalizer::key(const World& w) {
  std::string best = keyWithPerm(w, perms_[0], invPerms_[0]);
  for (std::size_t i = 1; i < perms_.size(); ++i) {
    std::string k = keyWithPerm(w, perms_[i], invPerms_[i]);
    if (k < best) best = std::move(k);
  }
  return best;
}

NodeId LegacyCanonicalizer::mapNode(NodeId n,
                                    const std::vector<NodeId>& perm) const {
  return n < cfg_.numProcessors ? perm[n] : n;
}

std::string LegacyCanonicalizer::keyWithPerm(const World& w,
                                             const std::vector<NodeId>& perm,
                                             const std::vector<NodeId>& inv) {
  txnMap_.clear();
  out_.str(std::string());
  for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
    const proto::DirEntry& e = w.dirs[0].entry(b);
    out_ << 'D' << static_cast<int>(e.core.state) << ','
         << mapNode(e.core.busyRequester, perm) << ','
         << static_cast<int>(e.core.busyReq) << ",[";
    std::vector<NodeId> cached;
    cached.reserve(e.core.cached.size());
    for (const NodeId n : e.core.cached) cached.push_back(mapNode(n, perm));
    std::sort(cached.begin(), cached.end());
    for (const NodeId n : cached) out_ << n << ' ';
    out_ << ']';
    if (cfg_.modelData) {
      out_ << 'v';
      if (e.mem.empty()) {
        out_ << '-';
      } else {
        out_ << e.mem[0];
      }
    }
    out_ << ';';
  }
  // Caches in canonical (permuted) id order.
  for (NodeId i = 0; i < cfg_.numProcessors; ++i) {
    const proto::CacheController& cache = w.caches[inv[i]];
    for (BlockId b = 0; b < cfg_.numBlocks; ++b) {
      emitLine(cache.findLine(b), perm);
    }
  }
  // Flight bag: order-independent — sorted by a view of each message in
  // which txn ids already canonicalized by the dir/cache sections appear
  // as their small marker and ids first seen in flight collapse to a
  // placeholder.  Sorting on raw txn ids would leak the global
  // allocation order (path- and scheduling-dependent) into the key,
  // splitting identical states.  Two in-flight messages can tie only
  // when they are content-identical up to such fresh ids; either order
  // then yields the same final key (markers are assigned positionally,
  // and one (requester, block) never has two concurrent transactions).
  std::vector<std::pair<std::string, std::string>> msgs;  // {view, raw}
  msgs.reserve(w.flight.size());
  for (const Flight& f : w.flight) {
    std::string raw = preKey(f, perm);
    msgs.emplace_back(sortView(raw), std::move(raw));
  }
  std::sort(msgs.begin(), msgs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& m : msgs) out_ << 'F' << remapInString(m.second) << ';';
  return out_.str();
}

std::string LegacyCanonicalizer::sortView(const std::string& s) const {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '<') {
      const std::size_t end = s.find('>', i);
      const TransactionId id = std::stoull(s.substr(i + 1, end - i - 1));
      if (id == kNoTransaction) {
        out += '~';
      } else if (const auto it = txnMap_.find(id); it != txnMap_.end()) {
        out += std::to_string(it->second);
      } else {
        out += '?';
      }
      i = end;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::string LegacyCanonicalizer::preKey(const Flight& f,
                                        const std::vector<NodeId>& perm) {
  std::ostringstream os;
  os << mapNode(f.dst, perm) << ',' << static_cast<int>(f.msg.type) << ','
     << f.msg.block << ',' << mapNode(f.msg.src, perm) << ','
     << mapNode(f.msg.requester, perm) << ','
     << static_cast<int>(f.msg.nackKind) << ','
     << static_cast<int>(f.msg.nackedReq) << ','
     << f.msg.ignoreBufferedInv << ",[";
  std::vector<NodeId> targets;
  targets.reserve(f.msg.invTargets.size());
  for (const NodeId n : f.msg.invTargets) targets.push_back(mapNode(n, perm));
  std::sort(targets.begin(), targets.end());
  for (const NodeId n : targets) os << n << ' ';
  os << ']';
  if (cfg_.modelData) {
    os << 'v';
    if (f.msg.data.empty()) {
      os << '-';
    } else {
      os << f.msg.data[0];
    }
  }
  os << ",t<" << f.msg.txn << ">,c<" << f.msg.closesTxn << '>';
  return os.str();
}

std::string LegacyCanonicalizer::remapInString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '<') {
      const std::size_t end = s.find('>', i);
      const TransactionId id = std::stoull(s.substr(i + 1, end - i - 1));
      out += std::to_string(remap(id));
      i = end;
    } else {
      out += s[i];
    }
  }
  return out;
}

std::uint64_t LegacyCanonicalizer::remap(TransactionId id) {
  if (id == kNoTransaction) return ~std::uint64_t{0};
  const auto [it, inserted] = txnMap_.try_emplace(id, txnMap_.size());
  return it->second;
}

void LegacyCanonicalizer::emitLine(const proto::Line* line,
                                   const std::vector<NodeId>& perm) {
  if (line == nullptr) {
    out_ << "L-;";
    return;
  }
  out_ << 'L' << static_cast<int>(line->cstate)
       << static_cast<int>(line->astate) << ",i" << remap(line->ignoreFwdTxn)
       << ",d" << remap(line->dropInvTxn) << ',';
  if (cfg_.modelData) {
    out_ << 'v';
    if (line->data.empty()) {
      out_ << '-';
    } else {
      out_ << line->data[0];
    }
    // The ForwardStaleValue mutant sends epochStartData on forwards, so
    // the projection must distinguish it or the abstraction leaks.
    if (cfg_.proto.mutant == Mutant::ForwardStaleValue &&
        !line->epochStartData.empty()) {
      out_ << 'e' << line->epochStartData[0];
    }
    out_ << ',';
  }
  if (line->mshr) {
    const proto::Mshr& m = *line->mshr;
    out_ << 'M' << static_cast<int>(m.req) << m.replySeen << m.invListKnown
         << ",[";
    std::vector<NodeId> acks;
    acks.reserve(m.acksPending.size());
    for (const NodeId n : m.acksPending) acks.push_back(mapNode(n, perm));
    std::sort(acks.begin(), acks.end());
    for (const NodeId n : acks) out_ << n << ' ';
    out_ << "],[";
    std::vector<NodeId> early;
    early.reserve(m.earlyAcks.size());
    for (const NodeId n : m.earlyAcks) early.push_back(mapNode(n, perm));
    std::sort(early.begin(), early.end());
    for (const NodeId n : early) out_ << n << ' ';
    out_ << "],p";
    if (m.pendingFwd) {
      out_ << static_cast<int>(m.pendingFwd->type) << '/'
           << mapNode(m.pendingFwd->requester, perm);
    } else {
      out_ << '-';
    }
    if (cfg_.modelData) {
      out_ << ",v";
      if (m.data.empty()) {
        out_ << '-';
      } else {
        out_ << m.data[0];
      }
    }
    out_ << ",b[";
    for (const proto::Message& bm : m.buffered) {
      out_ << static_cast<int>(bm.type) << '/' << mapNode(bm.requester, perm)
           << '/' << remap(bm.txn) << ' ';
    }
    out_ << ']';
  } else {
    out_ << "M-";
  }
  out_ << ';';
}

}  // namespace lcdc::mc
