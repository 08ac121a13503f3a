#include "tensor/serialize.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "util/logging.h"

namespace moc {

namespace {

constexpr std::uint32_t kMagic = 0x3254'4F4D;  // "MOT2" in file byte order
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "dims are stored as u64 and parsed into size_t");

template <typename T>
std::uint8_t*
PackPod(T value, std::uint8_t* out) {
    std::memcpy(out, &value, sizeof(T));
    return out + sizeof(T);
}

template <typename T>
T
UnpackPod(const std::uint8_t* in) {
    T value;
    std::memcpy(&value, in, sizeof(T));
    return value;
}

/** A validated header: the shape, and where its float payload starts. */
struct Header {
    std::vector<std::size_t> shape;
    const std::uint8_t* payload = nullptr;
};

/**
 * Checks data[0..size) holds exactly one encoding. Every count is bounded
 * by the bytes that remain before anything is allocated from it.
 */
Header
ParseHeader(const std::uint8_t* data, std::size_t size) {
    if (size < kHeaderBytes) {
        throw std::runtime_error("DeserializeTensor: blob too small");
    }
    if (UnpackPod<std::uint32_t>(data) != kMagic) {
        throw std::runtime_error(
            "DeserializeTensor: bad magic (not a MOT2 tensor encoding)");
    }
    const auto rank = UnpackPod<std::uint32_t>(data + sizeof(std::uint32_t));
    std::size_t left = size - kHeaderBytes;
    if (rank > left / sizeof(std::uint64_t)) {
        throw std::runtime_error("DeserializeTensor: rank " +
                                 std::to_string(rank) +
                                 " exceeds the blob");
    }
    const std::uint8_t* p = data + kHeaderBytes;
    left -= rank * sizeof(std::uint64_t);
    Header header;
    header.shape.resize(rank);
    // The element count must fit the payload exactly; bound each partial
    // product by it so no dim can overflow the multiplication.
    const std::size_t max_elems = left / sizeof(float);
    std::size_t elems = 1;
    bool any_zero = false;
    for (auto& d : header.shape) {
        d = UnpackPod<std::uint64_t>(p);
        p += sizeof(std::uint64_t);
        if (d == 0) {
            any_zero = true;
        } else if (!any_zero) {
            if (elems > max_elems / d) {
                throw std::runtime_error(
                    "DeserializeTensor: shape exceeds the blob");
            }
            elems *= d;
        }
    }
    if (rank == 0 || any_zero) {
        elems = 0;  // ShapeSize's convention for empty shapes
    }
    if (elems * sizeof(float) != left) {
        throw std::runtime_error("DeserializeTensor: size mismatch");
    }
    header.payload = p;
    return header;
}

}  // namespace

std::size_t
SerializedTensorSize(const Tensor& t) {
    return kHeaderBytes                                // magic + rank
           + t.rank() * sizeof(std::uint64_t)          // dims
           + t.size() * sizeof(float);                 // data
}

std::uint8_t*
SerializeTensorInto(const Tensor& t, std::uint8_t* out) {
    out = PackPod(kMagic, out);
    out = PackPod(static_cast<std::uint32_t>(t.rank()), out);
    for (std::size_t i = 0; i < t.rank(); ++i) {
        out = PackPod(static_cast<std::uint64_t>(t.dim(i)), out);
    }
    const std::size_t bytes = t.size() * sizeof(float);
    if (bytes > 0) {
        std::memcpy(out, t.data(), bytes);
    }
    return out + bytes;
}

std::vector<std::uint8_t>
SerializeTensor(const Tensor& t) {
    std::vector<std::uint8_t> out(SerializedTensorSize(t));
    SerializeTensorInto(t, out.data());
    return out;
}

Tensor
DeserializeTensor(const std::uint8_t* data, std::size_t size) {
    Header header = ParseHeader(data, size);
    Tensor t(std::move(header.shape));
    if (t.size() > 0) {
        std::memcpy(t.data(), header.payload, t.size() * sizeof(float));
    }
    return t;
}

Tensor
DeserializeTensor(const std::vector<std::uint8_t>& blob) {
    return DeserializeTensor(blob.data(), blob.size());
}

void
DeserializeTensorInto(const std::uint8_t* data, std::size_t size,
                      Tensor& dst) {
    const Header header = ParseHeader(data, size);
    MOC_CHECK_ARG(header.shape == dst.shape(),
                  "encoded shape differs from the destination tensor's");
    if (dst.size() > 0) {
        std::memcpy(dst.data(), header.payload, dst.size() * sizeof(float));
    }
}

}  // namespace moc
