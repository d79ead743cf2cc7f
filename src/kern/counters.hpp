#pragma once
// Operation counters shared by all real kernels. Each kernel function takes
// an optional OpCounts* and adds the exact FLOPs and memory traffic it
// performs; property tests cross-check these instrumented counts against the
// analytic counts the application skeletons feed the simulator
// (DESIGN.md §1, "Counted exactly").

namespace armstice::kern {

struct OpCounts {
    double flops = 0;
    double bytes_read = 0;
    double bytes_written = 0;

    [[nodiscard]] double bytes() const { return bytes_read + bytes_written; }

    OpCounts& operator+=(const OpCounts& o) {
        flops += o.flops;
        bytes_read += o.bytes_read;
        bytes_written += o.bytes_written;
        return *this;
    }
};

} // namespace armstice::kern
