#include "shard/sharded_backend.h"

#include "common/logging.h"

namespace wnrs {
namespace shard {

ShardedBackend::ShardedBackend(const ShardedEngine* engine) : engine_(engine) {
  WNRS_CHECK(engine != nullptr);
}

std::shared_ptr<const serve::QuerySnapshot> ShardedBackend::Snapshot() const {
  return serve::MakeQuerySnapshot(engine_->Snapshot());
}

}  // namespace shard
}  // namespace wnrs
