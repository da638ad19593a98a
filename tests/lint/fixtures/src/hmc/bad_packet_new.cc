// Fixture: HmcPacket allocated outside the packet factory.
#include <memory>

namespace fixture {

struct HmcPacket {
    int x = 0;
};

HmcPacket *
leak()
{
    return new HmcPacket();  // line 13: naked-packet-new
}

std::shared_ptr<HmcPacket>
unfactored()
{
    return std::make_shared<HmcPacket>();  // line 19: naked-packet-new
}

}  // namespace fixture
