// The original text canonical key, preserved verbatim from the string-key
// explorer.  Nothing in the library uses it: the explorer's one canonical
// form is `StateCodec`.  It survives here as the differential oracle the
// codec tests check against: over thousands of sampled reachable states,
// two worlds get equal binary encodings (`StateCodec`) iff they get equal
// legacy string keys — the property that makes the binary engine's state
// counts provably byte-identical to the old engine's.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mc/world.hpp"

namespace lcdc::mc {

class LegacyCanonicalizer {
 public:
  explicit LegacyCanonicalizer(const McConfig& cfg);

  /// Canonical key: the lexicographic minimum over all processor-id
  /// permutations (just the identity without symmetry reduction).
  std::string key(const World& w);

 private:
  [[nodiscard]] NodeId mapNode(NodeId n, const std::vector<NodeId>& perm) const;
  std::string keyWithPerm(const World& w, const std::vector<NodeId>& perm,
                          const std::vector<NodeId>& inv);
  [[nodiscard]] std::string sortView(const std::string& s) const;
  std::string preKey(const Flight& f, const std::vector<NodeId>& perm);
  std::string remapInString(const std::string& s);
  std::uint64_t remap(TransactionId id);
  void emitLine(const proto::Line* line, const std::vector<NodeId>& perm);

  const McConfig& cfg_;
  std::vector<std::vector<NodeId>> perms_;
  std::vector<std::vector<NodeId>> invPerms_;
  std::map<TransactionId, std::uint64_t> txnMap_;
  std::ostringstream out_;
};

}  // namespace lcdc::mc
