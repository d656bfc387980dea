#include "net/packet.hpp"

#include <vector>

namespace scallop::net {
namespace {

// Freelist of Packet objects. Recycled packets keep their payload vector's
// capacity, so a steady-state simulation stops paying a payload allocation
// per replicated copy. The pool is intentionally leaked: packets may be
// destroyed during static teardown (e.g. a test fixture member), after a
// function-local static pool would already be gone.
class PacketPool {
 public:
  Packet* Get() {
    if (free_.empty()) return new Packet();
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }
  void Put(Packet* p) {
    if (free_.size() >= kMaxFree) {
      delete p;
      return;
    }
    free_.push_back(p);
  }

 private:
  // Bounds idle memory: 16k ~1.2 KB payloads ≈ 20 MB worst case.
  static constexpr size_t kMaxFree = 16384;
  std::vector<Packet*> free_;
};

PacketPool& Pool() {
  static PacketPool* pool = new PacketPool();
  return *pool;
}

}  // namespace

void Recycler::operator()(Packet* p) const { Pool().Put(p); }

PacketPtr AcquirePacket() {
  Packet* p = Pool().Get();
  p->sent_at = 0;
  p->arrival = 0;
  p->ingress_port = 0;
  return PacketPtr(p);
}

PacketPtr ClonePacket(const Packet& p) {
  PacketPtr q = AcquirePacket();
  // Copy-assignment reuses the recycled payload buffer's capacity.
  *q = p;
  return q;
}

}  // namespace scallop::net
