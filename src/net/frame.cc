#include "net/frame.hh"

#include <cstring>

namespace drange::net {

void
FrameEncoder::appendRequest(std::vector<std::uint8_t> &out,
                            std::uint16_t priority,
                            std::uint32_t num_bytes)
{
    const std::size_t at = out.size();
    out.resize(at + kHeaderBytes);
    encodeRequestHeader(out.data() + at, priority, num_bytes);
}

void
FrameEncoder::appendResponse(std::vector<std::uint8_t> &out,
                             std::uint16_t status,
                             const std::uint8_t *payload,
                             std::size_t payload_bytes)
{
    unsigned char header[kHeaderBytes];
    encodeResponseHeader(header, status,
                         static_cast<std::uint32_t>(payload_bytes));
    out.reserve(out.size() + kHeaderBytes + payload_bytes);
    out.insert(out.end(), header, header + kHeaderBytes);
    if (payload_bytes > 0)
        out.insert(out.end(), payload, payload + payload_bytes);
}

void
FrameEncoder::appendResponse(std::vector<std::uint8_t> &out,
                             std::uint16_t status,
                             const std::string &message)
{
    appendResponse(
        out, status,
        reinterpret_cast<const std::uint8_t *>(message.data()),
        message.size());
}

std::vector<std::uint8_t>
FrameEncoder::request(std::uint16_t priority, std::uint32_t num_bytes)
{
    std::vector<std::uint8_t> out;
    appendRequest(out, priority, num_bytes);
    return out;
}

std::vector<std::uint8_t>
FrameEncoder::response(std::uint16_t status,
                       const std::uint8_t *payload,
                       std::size_t payload_bytes)
{
    std::vector<std::uint8_t> out;
    appendResponse(out, status, payload, payload_bytes);
    return out;
}

void
FrameDecoder::feed(const void *data, std::size_t count)
{
    if (error_ != Error::None || count == 0)
        return;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    // Compact the consumed prefix before growing, so a long-lived
    // connection's buffer stays proportional to one frame, not to its
    // whole history.
    if (pos_ > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), bytes, bytes + count);
}

bool
FrameDecoder::next(Frame &out)
{
    if (error_ != Error::None)
        return false;
    if (buffered() < kHeaderBytes)
        return false;
    const std::uint8_t *header = buf_.data() + pos_;

    if (header[0] == kRequestMagic0 && header[1] == kRequestMagic1) {
        out.kind = Frame::Kind::Request;
        out.code = decode16(header + 2);
        out.request_bytes = decode32(header + 4);
        out.payload.clear();
        pos_ += kHeaderBytes;
        return true;
    }

    if (header[0] == kResponseMagic0 && header[1] == kResponseMagic1) {
        const std::uint32_t payload_bytes = decode32(header + 4);
        if (payload_bytes > max_payload_) {
            error_ = Error::OversizedPayload;
            return false;
        }
        if (buffered() < kHeaderBytes + payload_bytes)
            return false; // Wait for the rest of the payload.
        out.kind = Frame::Kind::Response;
        out.code = decode16(header + 2);
        out.request_bytes = 0;
        const std::uint8_t *payload = header + kHeaderBytes;
        out.payload.assign(payload, payload + payload_bytes);
        pos_ += kHeaderBytes + payload_bytes;
        return true;
    }

    error_ = Error::BadMagic;
    return false;
}

void
FrameDecoder::reset()
{
    buf_.clear();
    pos_ = 0;
    error_ = Error::None;
}

} // namespace drange::net
