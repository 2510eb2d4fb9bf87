#include "cache/basic_policies.hh"

namespace ghrp::cache
{

void
DrripPolicy::reset(std::uint32_t num_sets, std::uint32_t num_ways)
{
    rrpv.reset(num_sets, num_ways);
    roles.assign(num_sets, SetRole::Follower);
    // Interleave leader sets through the index space.
    const std::uint32_t leaders =
        duelSets * 2 <= num_sets ? duelSets : num_sets / 2;
    for (std::uint32_t i = 0; i < leaders; ++i) {
        const std::uint32_t stride = num_sets / (leaders * 2);
        const std::uint32_t base = stride > 0 ? stride : 1;
        const std::uint32_t s1 = (2 * i) * base % num_sets;
        const std::uint32_t s2 = (2 * i + 1) * base % num_sets;
        roles[s1] = SetRole::LeaderSrrip;
        roles[s2] = SetRole::LeaderBrrip;
    }
    psel = 0;
}

} // namespace ghrp::cache
