#include "sim/partition.h"

#include <algorithm>
#include <cassert>

namespace hmcsim {

void
Partition::post(Tick when, int priority, std::uint32_t src_part,
                std::uint64_t src_seq, EventFn fn)
{
    RealLock lock(mailMu_);
    mailbox_.push_back(
        MailEntry{when, priority, src_part, src_seq, std::move(fn)});
}

void
Partition::drainMailbox()
{
    {
        RealLock lock(mailMu_);
        if (mailbox_.empty())
            return;
        draining_.swap(mailbox_);
    }
    // Canonical order: thread interleaving decided only the vector
    // order above, never the schedule order below.
    std::sort(draining_.begin(), draining_.end(),
              [](const MailEntry &a, const MailEntry &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.priority != b.priority)
                      return a.priority < b.priority;
                  if (a.srcPart != b.srcPart)
                      return a.srcPart < b.srcPart;
                  return a.srcSeq < b.srcSeq;
              });
    for (MailEntry &e : draining_) {
        // The lookahead contract: a cross post can never target the
        // destination partition's past.
        assert(e.when >= now_ &&
               "Partition::drainMailbox: post below the local clock "
               "(lookahead violated)");
        queue_.schedule(e.when, std::move(e.fn), e.priority);
    }
    draining_.clear();
}

std::size_t
Partition::mailboxSize() const
{
    RealLock lock(mailMu_);
    return mailbox_.size();
}

}  // namespace hmcsim
