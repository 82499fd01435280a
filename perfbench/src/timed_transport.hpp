// A ProbeTransport decorator that times the two hot boundaries of the probe
// layer from outside: send_batch (the sender thread's call into the world)
// and poll_responses_into (the receive thread's call). Every other call is
// forwarded unchanged, so a census through the decorator measures exactly
// what it would without it.
#pragma once

#include <vector>

#include "harness.hpp"
#include "probe/transport.hpp"

namespace perfbench {

class TimedTransport final : public lfp::probe::ProbeTransport {
  public:
    /// With `capture`, every packet sent is also copied (before the send is
    /// timed) so it can be replayed later; see for_each_captured_batch().
    explicit TimedTransport(lfp::probe::ProbeTransport& inner, bool capture = false)
        : inner_(&inner), capture_(capture) {}

    void send_batch(std::span<const lfp::net::Bytes> packets) override {
        if (capture_) {
            for (const lfp::net::Bytes& packet : packets) {
                arena_.insert(arena_.end(), packet.begin(), packet.end());
                packet_ends_.push_back(arena_.size());
            }
            batch_ends_.push_back(packet_ends_.size());
        }
        const auto start = Clock::now();
        inner_->send_batch(packets);
        send_s += seconds_since(start);
        packets_sent += packets.size();
    }

    std::vector<lfp::net::Bytes> poll_responses(std::chrono::milliseconds timeout) override {
        std::vector<lfp::net::Bytes> out;
        poll_responses_into(timeout, out);
        return out;
    }

    void poll_responses_into(std::chrono::milliseconds timeout,
                             std::vector<lfp::net::Bytes>& out) override {
        const std::size_t before = out.size();
        const auto start = Clock::now();
        inner_->poll_responses_into(timeout, out);
        poll_s += seconds_since(start);
        ++polls;
        if (out.size() == before) ++empty_polls;
        responses += out.size() - before;
    }

    void recycle(lfp::net::Bytes&& buffer) override { inner_->recycle(std::move(buffer)); }
    [[nodiscard]] bool drained() const override { return inner_->drained(); }
    [[nodiscard]] lfp::net::IPv4Address vantage_address() const override {
        return inner_->vantage_address();
    }
    [[nodiscard]] std::optional<std::uint64_t> backend_hint(
        lfp::net::IPv4Address target) const override {
        return inner_->backend_hint(target);
    }
    [[nodiscard]] std::chrono::milliseconds transact_timeout() const override {
        return inner_->transact_timeout();
    }

    /// Calls fn(batch) once per captured send_batch call, in order, with
    /// the batch rebuilt from the capture.
    template <typename Fn>
    void for_each_captured_batch(Fn&& fn) const {
        std::vector<lfp::net::Bytes> batch;
        std::size_t packet = 0;
        for (const std::size_t batch_end : batch_ends_) {
            batch.clear();
            for (; packet < batch_end; ++packet) {
                const std::size_t begin = packet == 0 ? 0 : packet_ends_[packet - 1];
                batch.emplace_back(arena_.begin() + static_cast<std::ptrdiff_t>(begin),
                                   arena_.begin() +
                                       static_cast<std::ptrdiff_t>(packet_ends_[packet]));
            }
            fn(std::span<const lfp::net::Bytes>(batch));
        }
    }

    // Written by one thread each (send side / receive side), read after the
    // census has joined its lanes.
    double send_s = 0.0;
    double poll_s = 0.0;
    std::uint64_t packets_sent = 0;
    std::uint64_t polls = 0;
    std::uint64_t empty_polls = 0;
    std::uint64_t responses = 0;

  private:
    lfp::probe::ProbeTransport* inner_;
    bool capture_;
    std::vector<std::uint8_t> arena_;
    std::vector<std::size_t> packet_ends_;
    std::vector<std::size_t> batch_ends_;
};

}  // namespace perfbench
