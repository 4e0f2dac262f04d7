#include "net/backed_stream.hpp"

namespace hadas::net {

void BackedWriter::ack(std::uint64_t upto) {
  if (upto <= acked_) return;  // stale ack from before a reconnect
  if (upto > write_seq())
    throw ProtocolError("BackedWriter: ack of offset " + std::to_string(upto) +
                        " beyond write sequence " +
                        std::to_string(write_seq()));
  unacked_.erase(0, static_cast<std::size_t>(upto - acked_));
  acked_ = upto;
}

std::string_view BackedWriter::from(std::uint64_t offset) const {
  if (offset < acked_ || offset > write_seq())
    throw ProtocolError(
        "BackedWriter: replay from offset " + std::to_string(offset) +
        " outside the retained window [" + std::to_string(acked_) + ", " +
        std::to_string(write_seq()) + "]");
  return std::string_view(unacked_).substr(
      static_cast<std::size_t>(offset - acked_));
}

std::size_t BackedReader::offer(std::uint64_t offset, std::string_view chunk) {
  const std::uint64_t expected = read_seq_ + inbox().size();
  if (offset > expected)
    throw ProtocolError("BackedReader: gap in the stream (got offset " +
                        std::to_string(offset) + ", expected " +
                        std::to_string(expected) + ")");
  const std::uint64_t end = offset + chunk.size();
  if (end <= expected) return 0;  // pure replay overlap
  const std::string_view novel =
      chunk.substr(static_cast<std::size_t>(expected - offset));
  inbox_.append(novel);
  return novel.size();
}

void BackedReader::consume(std::size_t n) {
  if (n > inbox().size())
    throw ProtocolError("BackedReader: consume of " + std::to_string(n) +
                        " bytes exceeds the " +
                        std::to_string(inbox().size()) + "-byte inbox");
  head_ += n;
  read_seq_ += n;
  if (head_ == inbox_.size()) {
    clear_inbox();
  } else if (head_ > inbox_.size() - head_) {
    inbox_.erase(0, head_);
    head_ = 0;
  }
}

}  // namespace hadas::net
