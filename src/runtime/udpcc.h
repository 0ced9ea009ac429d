// UdpCC (§3.1.3): acknowledged UDP with TCP-style congestion control.
//
// UDP is PIER's primary transport; UdpCC layers per-destination reliability
// on top of the VRI's raw datagrams. Per the paper's contract it provides:
//   * delivery acknowledgments with sender notification on failure
//     (Table 1's handleUDPAck semantics),
//   * TCP-style congestion control (slow start / AIMD window, exponential
//     backoff on timeout),
//   * NO in-order delivery guarantee — receivers deduplicate but do not
//     resequence, and PIER's operators are written to tolerate reordering.
//
// Per-peer layout. Every node keeps one PeerState per address it has sent
// to or heard from, so the table grows with the number of peers and its
// entry size is the simulator's memory cost per (node, peer) pair. Inline
// are the sender scalars (next seq, cwnd, ssthresh, RTT estimate, RTO), the
// receiver's `contiguous_seen` horizon and the `inflight` map, which is
// empty (and allocation-free) when idle. Two rarely used structures live in
// one `Overflow` block allocated on first use: the FIFO of messages waiting
// beyond cwnd, and the set of seqs seen out of order above the horizon. An
// in-order arrival only advances `contiguous_seen`; a peer that never
// exceeds its window and never sees a reordered frame never allocates one.
// Once allocated, an Overflow block lives as long as its peer.
//
// Reference stability. `peers_` is an unordered_map, whose element
// references survive rehashing, and no entry is erased before ~UdpCc. So a
// PeerState& taken at the start of Send/OnAck/OnTimeout stays valid across
// the delivery callbacks they run, even when those callbacks Send to new
// peers; each UdpCc event looks its peer up once.

#ifndef PIER_RUNTIME_UDPCC_H_
#define PIER_RUNTIME_UDPCC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

class UdpCc : public UdpHandler {
 public:
  struct Options {
    double initial_cwnd = 4.0;     // messages
    double max_cwnd = 64.0;
    TimeUs initial_rto = 1 * kSecond;
    TimeUs min_rto = 200 * kMillisecond;
    TimeUs max_rto = 8 * kSecond;
    int max_retries = 4;
  };

  struct Stats {
    uint64_t msgs_sent = 0;
    uint64_t msgs_delivered = 0;   // acked
    uint64_t msgs_failed = 0;      // gave up after retries
    uint64_t retransmits = 0;
    uint64_t msgs_received = 0;
    uint64_t duplicates_dropped = 0;
    uint64_t bytes_sent = 0;       // first-transmission payload bytes
    uint64_t bytes_received = 0;   // deduplicated inbound payload bytes
  };

  /// Called for each (deduplicated) inbound message.
  using MessageHandler =
      std::function<void(const NetAddress& source, std::string_view payload)>;

  /// Delivery report for one Send: Ok once acked, Unavailable on give-up.
  using DeliveryCallback = std::function<void(const Status&)>;

  /// Binds `port` on `vri`. The port is released on destruction.
  UdpCc(Vri* vri, uint16_t port) : UdpCc(vri, port, Options{}) {}
  UdpCc(Vri* vri, uint16_t port, Options options);
  ~UdpCc() override;

  UdpCc(const UdpCc&) = delete;
  UdpCc& operator=(const UdpCc&) = delete;

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }

  /// Reliably send `payload` to `destination` (a UdpCc on the same port
  /// number scheme). `on_delivery` may be null.
  void Send(const NetAddress& destination, std::string payload,
            DeliveryCallback on_delivery = nullptr);

  uint16_t port() const { return port_; }
  const Stats& stats() const { return stats_; }
  /// Number of peer entries (addresses sent to or heard from); never shrinks.
  size_t peer_count() const { return peers_.size(); }

  // UdpHandler:
  void HandleUdp(const NetAddress& source, std::string_view payload) override;

 private:
  struct Pending {
    uint64_t seq;
    std::string payload;
    DeliveryCallback on_delivery;
    int retries = 0;
    uint64_t timer_token = 0;
    TimeUs first_sent = 0;
  };

  /// Lazily allocated per-peer state (see the header comment).
  struct Overflow {
    std::deque<Pending> queued;      // sender: beyond cwnd, FIFO
    std::set<uint64_t> seen_above;   // receiver: seqs > contiguous_seen + 1
  };

  struct PeerState {
    // Sender side.
    uint64_t next_seq = 1;
    double cwnd = 0;
    double ssthresh = 0;
    TimeUs srtt = 0;      // 0 = no sample yet
    TimeUs rttvar = 0;
    TimeUs rto = 0;
    std::map<uint64_t, Pending> inflight;
    // Receiver side dedup: all seqs <= contiguous_seen delivered, plus
    // overflow->seen_above, the sparse set of higher seqs seen out of order.
    uint64_t contiguous_seen = 0;
    std::unique_ptr<Overflow> overflow;  // null until first needed

    Overflow& GetOverflow() {
      if (!overflow) overflow = std::make_unique<Overflow>();
      return *overflow;
    }
  };

  PeerState& Peer(const NetAddress& addr);
  void Transmit(const NetAddress& dst, PeerState& peer, Pending msg);
  void ArmTimer(const NetAddress& dst, Pending& pending, TimeUs rto);
  void OnAck(const NetAddress& src, uint64_t seq);
  void OnTimeout(NetAddress dst, uint64_t seq);
  void MaybeDrainQueue(const NetAddress& dst, PeerState& peer);
  bool AlreadySeen(PeerState& peer, uint64_t seq);

  Vri* vri_;
  uint16_t port_;
  Options options_;
  MessageHandler handler_;
  Stats stats_;
  std::unordered_map<NetAddress, PeerState, NetAddressHash> peers_;
};

}  // namespace pier

#endif  // PIER_RUNTIME_UDPCC_H_
